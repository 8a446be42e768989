#pragma once

/// \file trace.h
/// \brief Structured runtime tracing: a preallocated ring buffer of typed
/// trace events with category bitmask filtering.
///
/// The engine (and the admission/scheduling layers it drives) emit events
/// through a nullable TraceRecorder pointer: when tracing is disabled the
/// pointer is null and every emission site costs one load-and-branch; when
/// enabled, recording an event is a couple of stores into a preallocated
/// slab — no allocation, no I/O, no formatting. Exporting (Chrome trace,
/// JSONL, CSV — see exporters.h) happens after the run.
///
/// Like the paranoid invariant auditor, the recorder is *observe-only*: it
/// reads simulation state and never mutates it, so a traced run is
/// bit-identical to an untraced one (pinned by determinism_test).
///
/// The buffer has flight-recorder semantics: when full, the oldest events
/// are overwritten and `dropped()` counts what was lost, so a long run keeps
/// the most recent window instead of failing or allocating.

#include <cstdint>
#include <string>
#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/cluster/video.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Event categories, usable as a bitmask filter (TraceConfig::categories).
enum TraceCategory : std::uint32_t {
  kTraceAdmission = 1u << 0,  ///< arrival, accept, reject
  kTraceMigration = 1u << 1,  ///< DRM steps, chains, plan search
  kTraceSched = 1u << 2,      ///< server recomputes, urgency latch flips
  kTraceAllocation = 1u << 3, ///< per-request rate changes
  kTraceFailure = 1u << 4,    ///< server down/up, stream drops/recoveries
  kTraceReplication = 1u << 5,///< dynamic replication transfers
  kTraceBuffer = 1u << 6,     ///< buffer full/low wake-ups, underflow
  kTraceLifecycle = 1u << 7,  ///< tx complete, playback end, pause/resume
};

inline constexpr std::uint32_t kTraceAllCategories = 0xffu;

/// What happened. Each type belongs to exactly one category
/// (trace_event_category()); the payload fields `a`/`b` are type-specific
/// (see trace.cpp's serialization table and DESIGN.md §7).
enum class TraceEventType : std::uint8_t {
  // kTraceAdmission
  kArrival,          ///< request, video
  kAdmit,            ///< request, video, server; a = migration steps used
  kReject,           ///< request, video; a = replica holders of the video
  // kTraceMigration
  kMigrateBegin,     ///< request, video, server = from; a = to, b = buffered Mb
  kMigrateEnd,       ///< request, video, server = to
  kMigrationSearch,  ///< video; a = search nodes explored, b = plan length (-1 = none)
  // kTraceSched
  kRecompute,        ///< server; a = active streams, b = schedulable Mb/s
  kUrgentOn,         ///< request; a = staged playback cover, seconds
  kUrgentOff,        ///< request; a = staged playback cover, seconds
  // kTraceAllocation
  kAllocationChange, ///< request, server; a = old rate, b = new rate (Mb/s)
  // kTraceFailure
  kServerDown,       ///< server
  kServerUp,         ///< server
  kStreamDropped,    ///< request, video, server (no replica holder had room)
  kStreamRecovered,  ///< request, video, server = new home
  kBrownoutBegin,    ///< server; a = capacity factor
  kBrownoutEnd,      ///< server
  kStreamShed,       ///< request, video, server = old home; a = buffered Mb
  kRetryEnqueued,    ///< request (-1 = rejected arrival), video; a = queue depth
  kRetryReadmitted,  ///< request, video, server = new home; a = attempts used
  kRetryAbandoned,   ///< request (-1 = rejected arrival), video; a = attempts used
  kRepairPlanned,    ///< video, server = destination; a = long-down server
  kPartitionBegin,   ///< server (up but unreachable from the controller)
  kPartitionEnd,     ///< server (reachable again)
  // kTraceReplication
  kReplicationBegin, ///< video, server = destination; a = source (-2 = tertiary), b = rate
  kReplicationEnd,   ///< video, server = destination
  // kTraceBuffer
  kBufferFull,       ///< request, server; a = buffer level, Mb
  kBufferLow,        ///< request, server; a = buffer level, Mb
  kUnderflow,        ///< request, server; a = megabits short
  // kTraceLifecycle
  kTxComplete,       ///< request, video, server
  kPlaybackEnd,      ///< request, video
  kPause,            ///< request; a = buffer level, Mb
  kResume,           ///< request; a = buffer level, Mb
};

/// Category of an event type (fixed mapping).
TraceCategory trace_event_category(TraceEventType type);

/// Stable lowercase name, e.g. "admit", "migrate_begin" (JSONL `type` key).
const char* to_string(TraceEventType type);

/// Category name: "admission", "migration", ... (JSONL `cat` key).
const char* to_string(TraceCategory category);

/// Parses a comma-separated category list ("admission,migration"), "all",
/// or a numeric bitmask. Throws std::invalid_argument on unknown names.
std::uint32_t parse_trace_categories(const std::string& spec);

/// One recorded event. Plain data, fixed size; `request`/`video`/`server`
/// are -1 when not applicable.
struct TraceEvent {
  std::uint64_t seq = 0;  ///< the recorder's emission index (monotone,
                          ///< gap-free across drops — seq of the first
                          ///< retained event equals dropped())
  Seconds time = 0.0;
  TraceEventType type = TraceEventType::kArrival;
  ServerId server = kNoServer;
  RequestId request = -1;
  VideoId video = -1;
  double a = 0.0;
  double b = 0.0;
  /// Execution context that emitted the event: -1 = the coordinator (the
  /// only context when shards == 1), >= 0 = that shard. Stamped by the
  /// recorder (each context owns a tagged recorder); `seq` is per-recorder,
  /// so it increases strictly per tag. See
  /// VodSimulation::merged_trace_events.
  std::int32_t shard = -1;
};

/// Ring totals of the recorders behind an exported trace — one recorder per
/// execution context in a sharded run (VodSimulation::trace_totals).
struct TraceTotals {
  std::uint64_t emitted = 0;  ///< events emitted (retained + dropped)
  std::uint64_t dropped = 0;  ///< events overwritten by ring wrap-around
  std::uint32_t categories = 0;
};

/// Tracing knobs carried by SimulationConfig. The VODSIM_TRACE environment
/// variable (a category spec, or any nonzero number for all categories)
/// forces tracing on regardless of the flag.
struct TraceConfig {
  bool enabled = false;
  std::uint32_t categories = kTraceAllCategories;
  /// Ring capacity in events (~48 B each). The default holds the full
  /// event stream of several simulated hours of the paper's small system.
  std::size_t capacity = 1u << 20;
};

class TraceRecorder {
 public:
  /// \param shard the context tag stamped on every recorded event: -1 for
  /// the coordinator's recorder, the shard index for a shard's own
  /// recorder.
  explicit TraceRecorder(const TraceConfig& config, std::int32_t shard = -1);

  /// True when \p category is enabled — emission sites check this before
  /// assembling a payload.
  bool wants(std::uint32_t category) const { return (mask_ & category) != 0; }
  std::uint32_t categories() const { return mask_; }

  /// Appends an event (overwrites the oldest when full). The caller has
  /// already checked wants(); record() does not re-filter.
  void record(Seconds time, TraceEventType type, ServerId server = kNoServer,
              RequestId request = -1, VideoId video = -1, double a = 0.0,
              double b = 0.0);

  /// Events currently retained, oldest first.
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  std::size_t capacity() const { return capacity_; }

  /// i-th retained event, oldest first (0 <= i < size()).
  const TraceEvent& operator[](std::size_t i) const {
    return ring_[(start_ + i) % ring_.size()];
  }

  /// Events emitted in total (retained + dropped).
  std::uint64_t emitted() const { return next_seq_; }

  /// Events overwritten by ring wrap-around.
  std::uint64_t dropped() const { return next_seq_ - ring_.size(); }

  /// Copies the retained events, oldest first (test/export convenience).
  std::vector<TraceEvent> snapshot() const;

 private:
  std::uint32_t mask_;
  std::int32_t shard_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  ///< reserved to capacity_, filled on use
  std::size_t start_ = 0;         ///< index of the oldest retained event
  std::uint64_t next_seq_ = 0;
};

}  // namespace vodsim
