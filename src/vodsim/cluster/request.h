#pragma once

/// \file request.h
/// \brief Request lifecycle and per-request fluid transmission state.
///
/// A request is one client viewing one video. Its life:
///
///   arrival -> (admitted | rejected)
///   admitted: Streaming on some server, possibly migrated between servers,
///             until all data is transmitted (TxComplete), then playback
///             drains the staging buffer until the video ends (Done).
///
/// Playback starts the instant the request is admitted and consumes
/// view_bandwidth until `playback_end`. Transmission rate is piecewise
/// constant between simulation events; `advance()` integrates the fluid
/// state up to the current time.

#include <cstdint>

#include "vodsim/cluster/client.h"
#include "vodsim/cluster/fluid_lane.h"
#include "vodsim/cluster/video.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

using RequestId = std::int64_t;
using ServerId = std::int32_t;

inline constexpr ServerId kNoServer = -1;

enum class RequestState {
  kStreaming,   ///< unfinished: holds server bandwidth (minimum-flow)
  kMigrating,   ///< between servers; receives nothing, buffer drains
  kTxComplete,  ///< all data at client; playback continues from buffer
  kDone,        ///< playback finished
  kRejected,    ///< admission failed
};

class Request {
 public:
  Request(RequestId id, const Video& video, Seconds arrival,
          const ClientProfile& client);

  // --- identity / immutable parameters -------------------------------
  RequestId id() const { return id_; }
  VideoId video_id() const { return video_id_; }
  Seconds arrival() const { return arrival_; }
  Seconds playback_end() const { return playback_end_; }
  Mbps view_bandwidth() const { return view_bandwidth_; }
  Mbps receive_bandwidth() const { return receive_bandwidth_; }
  Megabits total_size() const { return total_size_; }

  // --- dynamic state --------------------------------------------------
  // While attached to a server, the hot fluid fields (remaining data,
  // staging level, last-update time) live in the server's FluidLane at
  // slot `active_index` and the accessors read through; detached requests
  // own their state inline (cluster/fluid_lane.h documents the authority
  // model). allocation and the pause/playback fields stay home-
  // authoritative with write-through, so those reads are branch-free.
  RequestState state() const { return state_; }
  ServerId server() const { return server_; }
  Megabits remaining() const {
    return lane_ != nullptr ? lane_->remaining(active_index) : remaining_;
  }
  Mbps allocation() const { return allocation_; }
  Seconds last_update() const {
    return lane_ != nullptr ? lane_->last_update(active_index) : last_update_;
  }
  int hops() const { return hops_; }
  bool viewing_paused() const { return viewing_paused_; }
  int pause_count() const { return pause_count_; }

  // --- staging-buffer view ---------------------------------------------
  // Scalar accessors rather than a StagingBuffer reference: the level may
  // live in the lane, so there is no single object to hand out. Arithmetic
  // is identical to StagingBuffer's (full/headroom/playback_cover).
  Megabits buffer_level() const {
    return lane_ != nullptr ? lane_->buffer_level(active_index) : buffer_.level();
  }
  Megabits buffer_capacity() const { return buffer_.capacity(); }

  /// True when no further workahead fits (within fluid-model tolerance).
  bool buffer_full() const {
    return buffer_level() >= buffer_.capacity() - StagingBuffer::kLevelTolerance;
  }

  /// Megabits of additional workahead the staging buffer can hold.
  Megabits buffer_headroom() const {
    const Megabits level = buffer_level();
    return buffer_.capacity() > level ? buffer_.capacity() - level : 0.0;
  }

  /// Seconds of playback the staged data covers at this request's view rate.
  Seconds buffer_cover() const { return buffer_level() / view_bandwidth_; }

  /// Rate at which the client consumes data right now (0 while paused or
  /// after the video ends).
  Mbps drain_rate(Seconds now) const;

  /// Least rate this request can usefully absorb. Normally the view
  /// bandwidth (the minimum-flow guarantee); 0 when the client is paused
  /// with a full staging buffer — its disk cannot take another bit, so
  /// forcing flow at it would only be discarded.
  Mbps minimum_rate() const;

  /// Time at which the transmission would finish if sent at exactly
  /// view_bandwidth from \p now on — EFTF's ordering key. Smaller remaining
  /// data = earlier projected finish.
  Seconds projected_finish(Seconds now) const;

  /// True if all data has been transmitted.
  bool finished() const { return remaining() <= kRemainingTolerance; }

  /// Megabits delivered to the client so far (audit surface: the invariant
  /// auditor reconciles the sum of these against the integrated fluid flow).
  Megabits delivered() const { return total_size_ - remaining(); }

  /// Integrates the fluid state from last_update() to \p now at the current
  /// allocation: decreases remaining data, fills/drains the staging buffer
  /// against playback. Returns megabits of playback underflow in the
  /// interval (0 in normal operation). Idempotent for now == last_update().
  Megabits advance(Seconds now);

  /// Sets the transmission rate going forward from \p now. Caller must have
  /// advanced the request to \p now first. Rate must respect the client cap.
  void set_allocation(Seconds now, Mbps rate);

  // --- interactivity (engine-driven) ----------------------------------
  /// Pauses playback at \p now (caller must advance() first). The playback
  /// deadline freezes; it is extended by the pause length at resume.
  void pause_viewing(Seconds now);

  /// Resumes playback; shifts playback_end by the pause duration.
  void resume_viewing(Seconds now);

  // --- lifecycle transitions (engine-driven) --------------------------
  void begin_streaming(Seconds now, ServerId server);
  void begin_migration(Seconds now);
  void complete_migration(Seconds now, ServerId new_server);
  void mark_tx_complete(Seconds now);
  void mark_done(Seconds now);
  void mark_rejected();

  // --- SoA lane binding (Server::attach/detach only) -------------------
  /// Binds this request to \p lane at slot `active_index`. The caller has
  /// already appended the home scalars to the lane (FluidLane::append).
  void attach_lane(FluidLane* lane);

  /// Copies the lane-authoritative fields back into the home scalars and
  /// unbinds. Call before the lane slot is recycled (swap_remove).
  void detach_lane();

  /// The owning server's lane while attached (slot = active_index), null
  /// otherwise. Lets the scheduler hot loops detect that a candidate vector
  /// is lane-backed and read the SoA arrays directly.
  const FluidLane* lane() const { return lane_; }

  // --- predicted-event bookkeeping ------------------------------------
  // The engine stores handles to this request's pending predicted events so
  // it can reschedule only when the allocation actually changes.
  EventId tx_complete_event = kInvalidEventId;
  EventId buffer_full_event = kInvalidEventId;
  EventId playback_end_event = kInvalidEventId;
  /// Fires when a deliberately starved stream (intermittent scheduling)
  /// drains to the safety threshold and needs flow again.
  EventId buffer_low_event = kInvalidEventId;

  /// Index of this request within its server's active list (engine-managed;
  /// enables O(1) removal).
  std::size_t active_index = 0;

  /// Hysteresis latch for the intermittent scheduler: set when staged cover
  /// falls below the safety threshold, cleared only once it recovers past
  /// twice the threshold. Without the latch, a stream hovering exactly at
  /// the threshold flips between fed and starved every fluid instant
  /// (scheduler-managed). Lane-authoritative while attached, like the
  /// buffer level: the scheduler's lane pass reads it from the lane, and
  /// detach copies it home.
  bool workahead_urgent() const {
    return lane_ != nullptr ? lane_->urgent(active_index) : workahead_urgent_;
  }
  void set_workahead_urgent(bool urgent) {
    if (lane_ != nullptr) {
      lane_->set_urgent(active_index, urgent);
    } else {
      workahead_urgent_ = urgent;
    }
  }

  /// Interruption-dedupe key (FailureConfig::glitch_dedupe_window): index
  /// of the last dedupe window in which this stream logged a counted
  /// interruption, -1 = never (engine-managed, like active_index). Lives
  /// on the request so single-queue and sharded runs dedupe identically.
  std::int64_t last_glitch_window = -1;

  /// Last server that hosted this stream. Unlike server(), it survives
  /// parking and mid-migration (where server_ resets to kNoServer), so
  /// glitches of a parked orphan still attribute to the failure domain
  /// that orphaned it. Maintained by begin_streaming/complete_migration.
  ServerId last_server = kNoServer;

  /// Fluid-model tolerance on remaining data (megabits).
  static constexpr Megabits kRemainingTolerance = 1e-6;

 private:
  RequestId id_;
  VideoId video_id_;
  Seconds arrival_;
  Seconds playback_end_;
  Mbps view_bandwidth_;
  Mbps receive_bandwidth_;
  Megabits total_size_;

  RequestState state_ = RequestState::kStreaming;
  ServerId server_ = kNoServer;
  Megabits remaining_;
  Mbps allocation_ = 0.0;
  Seconds last_update_;
  StagingBuffer buffer_;
  /// The owning server's fluid lane while attached, nullptr otherwise.
  FluidLane* lane_ = nullptr;
  int hops_ = 0;
  bool workahead_urgent_ = false;
  bool viewing_paused_ = false;
  Seconds pause_started_ = 0.0;
  int pause_count_ = 0;
};

}  // namespace vodsim
