#pragma once

/// \file fluid_lane.h
/// \brief A server's stream table: its requests, their traits and their
/// struct-of-arrays fluid state, one slot per active stream.
///
/// Each server keeps its streams in one table, its FluidLane: slot i holds
/// the request with `Request::active_index == i` — its `Request*`, its
/// StreamTraits, its fluid state in parallel arrays, its urgency latch and
/// its predicted-event keys. Server::attach appends a slot (copying the
/// request's home scalars, setting its active_index and binding it to the
/// lane); Server::detach removes one (copying the hot fields home and
/// moving the last slot in), so the table is the server's active list.
/// Every per-slot array grows with the table, on demand, and nothing is
/// reserved ahead of the traffic.
///
/// Authority model (see DESIGN.md §10):
///   - While a request is attached, the lane slot is authoritative for the
///     fields the kernel mutates (remaining data, staging-buffer level,
///     last-update time) and for the allocation, urgency latch and
///     predicted-event keys. Request accessors read through the lane.
///   - Only the paused flag and playback end stay home-authoritative on the
///     Request, written through to the lane on pause and resume.
///   - While detached (migrating, draining after TxComplete), the home
///     scalars are authoritative; detach copies the lane's fields home.
///
/// Storage: the ten fluid arrays live in ONE 64-byte-aligned arena,
/// laid out hot-to-cold at a shared stride so every array starts on a
/// cache-line boundary. The batch kernels get aligned, peel-free vector
/// loads; the single-slot scalar path touches a compact block of lines
/// instead of ten scattered heap allocations.
/// The hot block leads with the three kernel-mutated arrays (last-update,
/// remaining, buffer level), then the six kernel-read parameters; the cold
/// tail holds the receive bandwidth, read only by the workahead passes.
/// The per-slot arrays no kernel reads are vectors outside the arena: the
/// requests, their traits, the urgency latch (one byte per slot rather than
/// an eleventh double) and the predicted-event keys (DESIGN.md §8).
/// One growth rule covers them all: when append finds the table full, the
/// arena doubles and the arrays beside it are resized to the same
/// capacity, so the table follows the server's traffic. Only the request
/// array is kept at size(), since it is the server's active list.
///
/// One fluid path. A server recompute advances all of its streams with
/// `advance_batch`, which runs the single-stream arithmetic in one
/// vectorizable loop and continues the caller's transmission meter in
/// slot order; a single-request event (pause, resume, shed, migrate, ...)
/// advances its one stream through `advance_one`, the same formulas. Both
/// are bit-identical to advancing the streams one at a time in active
/// order, so the 29 hexfloat determinism goldens pin the batch kernel and
/// the lane plumbing directly.

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "vodsim/cluster/video.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Request;

/// Single-stream fluid formulas, defined exactly once. The scalar path
/// (a detached Request::advance) and the lane's advance_one call
/// advance_stream directly; the advance kernel (fluid_lane.cpp) is a
/// branchless re-expression of the same operations, proven bit-identical
/// per stream (the argument is spelled out at the kernel), so restructuring
/// storage cannot change a single floating-point result per stream. The
/// sort-key kernel loops over projected_finish, and the lane's per-slot
/// projected_finish and predicted_times apply the formulas to one slot.
namespace fluid_detail {

/// Fluid-model tolerance on staging-buffer levels (megabits); about 1e-6 s
/// of a 3 Mb/s stream.
inline constexpr Megabits kLevelTolerance = 1e-6;

/// A client staging buffer's fill/drain step on raw level storage: applies
/// inflow and playback outflow, clamps the level into [0, capacity], and
/// returns the megabits by which playback would have underrun (0 within
/// tolerance).
inline Megabits apply_buffer(Megabits& level, Megabits capacity,
                             Megabits inflow, Megabits outflow) {
  level += inflow - outflow;
  Megabits underflow = 0.0;
  if (level < 0.0) {
    underflow = -level;
    level = 0.0;
  }
  if (level > capacity) {
    // Allocation logic never intentionally overfills; anything here is
    // floating-point slop from event-time rounding.
    level = capacity;
  }
  return underflow > kLevelTolerance ? underflow : 0.0;
}

/// One stream's fluid step from `last_update` to `now`: the exact
/// arithmetic of Request::advance on caller-supplied storage. Returns
/// megabits of playback underflow over the interval.
inline Megabits advance_stream(Seconds now, Seconds& last_update,
                               Megabits& remaining, Megabits& buffer_level,
                               Megabits buffer_capacity, Mbps allocation,
                               bool paused, Seconds arrival,
                               Seconds playback_end, Mbps view_bandwidth) {
  const Seconds dt = now - last_update;
  if (dt <= 0.0) {
    last_update = now;
    return 0.0;
  }

  const Megabits inflow = allocation * dt;
  remaining = std::max(0.0, remaining - inflow);

  // Playback consumes view_bandwidth over the part of [last_update, now]
  // that overlaps [arrival, playback_end] — unless paused. The engine
  // advances exactly at pause/resume instants, so the paused flag is
  // constant across any integrated interval.
  Megabits outflow = 0.0;
  if (!paused) {
    const Seconds play_lo = std::max(last_update, arrival);
    const Seconds play_hi = std::min(now, playback_end);
    if (play_hi > play_lo) outflow = view_bandwidth * (play_hi - play_lo);
  }

  last_update = now;
  return apply_buffer(buffer_level, buffer_capacity, inflow, outflow);
}

/// A rate as Request/FluidLane::set_allocation store it: a rounding error
/// below 0 is stored as 0, and no rate may exceed the receive link.
inline Mbps checked_rate(Mbps rate, Mbps receive_bandwidth) {
  assert(rate >= -1e-12 && rate <= receive_bandwidth + 1e-9);
  (void)receive_bandwidth;
  return std::max(rate, 0.0);
}

/// Request::buffer_full's test on a staging buffer's state: full within
/// kLevelTolerance.
inline bool buffer_full(Megabits level, Megabits capacity) {
  return level >= capacity - kLevelTolerance;
}

/// The finish-time order key (EFTF, LFTF, the intermittent scheduler's
/// workahead phase): the time the stream would finish if sent at exactly
/// its view bandwidth from \p now on. Since all videos share one view
/// bandwidth, smaller remaining data = earlier projected finish.
inline Seconds projected_finish(Seconds now, Megabits remaining,
                                Mbps view_bandwidth) {
  return now + remaining / view_bandwidth;
}

/// The three event times the engine predicts for a streaming request
/// (DESIGN.md §8); +inf = no event.
struct PredictedTimes {
  Seconds tx_complete;
  Seconds buffer_full;
  Seconds buffer_low;
};

/// One stream's predicted event times under its current allocation
/// \p rate: transmission complete (remaining / rate from now), buffer full
/// (headroom / surplus while receiving faster than playback drains) and
/// buffer low (the staged data reaching \p safety_cover seconds of
/// playback while draining faster than receiving — the intermittent
/// scheduler's wake-up). A buffer event is kept only if it precedes
/// transmission complete. \p playing is the lane's 1.0/0.0 playback mask.
///
/// A rate <= 0 stream gets tx = +inf, and a consumer re-derives liveness
/// from the allocation sign, never from this time (a pathological tiny
/// rate could divide to +inf yet still mean "transmitting"). A kept
/// full/low time is finite (the `< tx` comparison fails on inf), so
/// finiteness is its liveness.
inline PredictedTimes predicted_times(Seconds now, double safety_cover,
                                      Megabits remaining, Mbps rate,
                                      Megabits level, Megabits capacity,
                                      Mbps view_bandwidth, Seconds arrival,
                                      Seconds playback_end, double playing) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  PredictedTimes times{kNever, kNever, kNever};
  if (rate > 0.0) times.tx_complete = now + remaining / rate;

  // The buffer fills at rate - drain, where drain is Request::drain_rate:
  // the view bandwidth while playing inside [arrival, playback_end), else 0.
  const bool draining =
      playing != 0.0 && now >= arrival && now < playback_end;
  const Mbps surplus = rate - (draining ? view_bandwidth : 0.0);
  if (surplus > 1e-12 && !buffer_full(level, capacity)) {
    const Megabits headroom = capacity > level ? capacity - level : 0.0;
    const Seconds full_at = now + headroom / surplus;
    if (full_at < times.tx_complete) times.buffer_full = full_at;
  } else if (surplus < -1e-12) {
    // Draining faster than receiving: wake the scheduler when the staged
    // data reaches the safety threshold, so the stream regains flow before
    // playback starves. A stream already at or below the threshold is
    // known-urgent to the scheduler; waking it again would only churn.
    const Megabits threshold = safety_cover * view_bandwidth;
    if (level > threshold + kLevelTolerance) {
      const Seconds low_at = now + (level - threshold) / -surplus;
      if (low_at < times.tx_complete) times.buffer_low = low_at;
    }
  }
  return times;
}

}  // namespace fluid_detail

/// The three events the engine predicts per streaming request (DESIGN.md
/// §8), in the order each recompute takes their seqs.
enum class Prediction : std::uint8_t { kTxComplete, kBufferFull, kBufferLow };

/// One stream's prediction keys, indexed by Prediction (kNoEventKey = none).
using PredictionKeys = std::array<EventKey, 3>;
inline constexpr PredictionKeys kNoPredictions{kNoEventKey, kNoEventKey,
                                               kNoEventKey};

/// The two per-stream facts the DRM victim search (admission/migration.h)
/// filters and routes on besides the fluid state: the stream's title and
/// how often it has migrated. Both are fixed while the stream is attached
/// (a migration detaches it first), so append copies them once.
struct StreamTraits {
  VideoId video;
  int hops;
};

/// A server's stream table. Slot i belongs to the request with
/// active_index == i on the owning server.
class FluidLane {
 public:
  FluidLane() = default;
  FluidLane(FluidLane&&) = default;
  FluidLane& operator=(FluidLane&&) = default;
  // Deep copies of the table: Server is copied by the reference oracle,
  // which clones the engine's freshly built world. The copy owns every
  // array (no aliasing); its request pointers name the same Requests, which
  // stay bound to the original lane.
  FluidLane(const FluidLane& other) { *this = other; }
  FluidLane& operator=(const FluidLane& other);

  std::size_t size() const { return size_; }

  /// Appends \p request as the last slot: copies its home-authoritative
  /// scalars and its traits, sets its active_index and binds it to this
  /// lane (Request::attach_lane).
  void append(Request& request);

  /// Removes slot \p index by swap-with-last: copies the slot's
  /// lane-authoritative fields home and unbinds its request
  /// (Request::detach_lane), moves the last slot into \p index and sets
  /// the moved request's active_index. The grant order is left alone.
  void remove(std::size_t index);

  /// Stream advances with dt > 0 so far: the fluid count in
  /// Server::version, which counts appends and removals itself (its terms
  /// count). Between those, what the admission search reads from the table
  /// (remaining data, buffer levels) changes only with an advance; rates,
  /// prediction keys, the urgency latch and the pause flag do not count.
  std::uint64_t version() const { return version_; }

  /// The slots of the intermittent scheduler's previous workahead grant
  /// order, which sched_detail::sort_by_projected_finish repairs and then
  /// overwrites. Like the urgency latch, only a hint: any content sorts to
  /// the same order. Writable through a non-const lane only; the sort
  /// reaches it through its first request's binding (Request::lane).
  std::vector<std::uint32_t>& grant_order() { return grant_order_; }
  const std::vector<std::uint32_t>& grant_order() const { return grant_order_; }

  // --- per-slot access (slot = Request::active_index) -------------------
  /// The attached requests in slot order: Server::active_requests.
  const std::vector<Request*>& requests() const { return requests_; }
  const StreamTraits& traits(std::size_t i) const { return traits_[i]; }
  Megabits remaining(std::size_t i) const { return remaining_[i]; }
  Mbps allocation(std::size_t i) const { return allocation_[i]; }
  Seconds last_update(std::size_t i) const { return last_update_[i]; }
  Megabits buffer_level(std::size_t i) const { return buffer_level_[i]; }
  Mbps view_bandwidth(std::size_t i) const { return view_bandwidth_[i]; }
  Mbps receive_bandwidth(std::size_t i) const { return receive_bandwidth_[i]; }

  /// Request::buffer_full on the slot's state (same operands, same
  /// comparison), for the scheduler passes that walk the lane.
  bool buffer_full(std::size_t i) const {
    return fluid_detail::buffer_full(buffer_level_[i], buffer_capacity_[i]);
  }

  /// Slot \p i's projected finish (fluid_detail::projected_finish).
  Seconds projected_finish(std::size_t i, Seconds now) const {
    return fluid_detail::projected_finish(now, remaining_[i],
                                          view_bandwidth_[i]);
  }

  /// Slot \p i's predicted event times (fluid_detail::predicted_times),
  /// evaluated for each slot whose rate a recompute changed.
  fluid_detail::PredictedTimes predicted_times(std::size_t i, Seconds now,
                                               double safety_cover) const {
    return fluid_detail::predicted_times(
        now, safety_cover, remaining_[i], allocation_[i], buffer_level_[i],
        buffer_capacity_[i], view_bandwidth_[i], arrival_[i], playback_end_[i],
        playing_[i]);
  }

  /// The intermittent scheduler's urgency latch (Request::workahead_urgent),
  /// lane-authoritative while the request is attached.
  bool urgent(std::size_t i) const { return urgent_[i] != 0; }
  void set_urgent(std::size_t i, bool urgent) { urgent_[i] = urgent ? 1 : 0; }

  /// Sets slot \p i's rate (fluid_detail::checked_rate), advanced to now.
  void set_allocation(std::size_t i, Mbps rate) {
    allocation_[i] = fluid_detail::checked_rate(rate, receive_bandwidth_[i]);
  }

  // --- predicted-event keys (lane-authoritative; DESIGN.md §8) -----------
  // Each slot keeps the (time, seq) key of each of its three predictions
  // (kNoEventKey = none), plus the time of the earliest of them in a dense
  // array, and the lane tracks its earliest live key and holder slot, so
  // next_prediction rescans (one vectorized pass) only after the holder's
  // keys moved. The engine arms one timer per server at that key.
  const PredictionKeys& predictions(std::size_t i) const {
    return predictions_[i];
  }
  /// The earliest of slot \p i's keys (kNoEventKey when it has none).
  EventKey earliest_prediction(std::size_t i) const {
    const PredictionKeys& keys = predictions_[i];
    return std::min({keys[0], keys[1], keys[2]});
  }
  /// Which of slot \p i's predictions holds its earliest key.
  Prediction earliest_kind(std::size_t i) const;
  /// Writes a slot's keys.
  void set_predictions(std::size_t i, const PredictionKeys& keys) {
    predictions_[i] = keys;
    refresh(i);
  }
  /// Drops one prediction of slot \p i.
  void clear_prediction(std::size_t i, Prediction kind) {
    predictions_[i][static_cast<std::size_t>(kind)] = kNoEventKey;
    refresh(i);
  }
  /// The slot holding the lane's earliest live key, or size() when no slot
  /// holds one: next_prediction's rescan.
  std::size_t earliest_slot() const;

  /// The lane's earliest live prediction: its key, slot and kind (key
  /// kNoEventKey and slot SIZE_MAX when no slot holds a live key).
  struct NextPrediction {
    EventKey key = kNoEventKey;
    std::size_t slot = std::numeric_limits<std::size_t>::max();
    Prediction kind = Prediction::kTxComplete;
  };

  /// The earliest live prediction, rescanning (earliest_slot) only when
  /// the tracking is stale.
  const NextPrediction& next_prediction() {
    if (next_stale_) {
      const std::size_t slot = earliest_slot();
      next_ = slot == size_ ? NextPrediction{}
                            : NextPrediction{earliest_prediction(slot), slot,
                                             earliest_kind(slot)};
      next_stale_ = false;
    }
    return next_;
  }
  /// The tracking without a rescan, nullptr while stale (for the auditor).
  const NextPrediction* tracked_prediction() const {
    return next_stale_ ? nullptr : &next_;
  }

  // Write-through sinks for the home-authoritative fields (Request-driven).
  void set_paused(std::size_t i, bool paused) {
    playing_[i] = paused ? 0.0 : 1.0;
  }
  void set_playback_end(std::size_t i, Seconds end) { playback_end_[i] = end; }

  /// Advancement of one slot (Request::advance on an attached request, for
  /// single-request events): identical formulas to the batch kernel.
  /// Returns playback underflow (Mb).
  Megabits advance_one(std::size_t i, Seconds now) {
    version_ += static_cast<std::uint64_t>(now > last_update_[i]);
    return fluid_detail::advance_stream(
        now, last_update_[i], remaining_[i], buffer_level_[i],
        buffer_capacity_[i], allocation_[i], playing_[i] == 0.0, arrival_[i],
        playback_end_[i], view_bandwidth_[i]);
  }

  /// Aggregate outcome of one batch.
  struct BatchResult {
    std::size_t advanced = 0;  ///< streams with dt > 0
    bool any_underflow = false;
  };

  /// Advances every slot to \p now in one branchless, vectorizable loop.
  /// Per-stream state updates are bit-identical to advance_one (see the
  /// kernel for the proof sketch). \p transmitted is the caller's running
  /// transmission meter, continued in place: each slot's allocation · dt,
  /// clipped to [window_start, window_end] exactly as
  /// Metrics::record_transmission clips it, is added to it in slot order —
  /// the same additions in the same order as one record_transmission call
  /// per stream, so the meter comes out bit-identical too.
  /// \p underflow_scratch is resized to size() and receives
  /// each slot's playback underflow (0 for almost every stream — the
  /// engine walks it only when the result says any_underflow).
  BatchResult advance_batch(Seconds now, Seconds window_start,
                            Seconds window_end, Megabits& transmitted,
                            std::vector<Megabits>& underflow_scratch);

  // --- scheduler-facing batch passes ------------------------------------
  // The schedulers (sched/) read every per-stream quantity from the lane of
  // the server whose active list they allocate, and the engine's
  // predicted-event retiming reads it here too; walking the arrays beats
  // chasing Request pointers. The passes read the same authoritative values
  // the Request accessors return, and the sort keys and predicted times
  // come from the single-source fluid_detail formulas, so every caller
  // sees the same bits — the determinism goldens pin that. The
  // minimum-flow schedulers (EFTF, LFTF, continuous, proportional) read one
  // fill_grant_inputs pass each; the intermittent scheduler reads
  // fill_workahead_inputs and, when it sorts, fill_projected_finish.

  /// Sums of one fill_grant_inputs pass, each added in slot order.
  struct GrantSums {
    Mbps committed = 0.0;  ///< the minimum rates
    Mbps room = 0.0;       ///< the eligible slots' rooms
  };

  /// The minimum-flow schedulers' inputs in one vectorized pass over the
  /// lane. Per slot it writes:
  ///   - minimum[i]: its minimum rate (Request::minimum_rate semantics: the
  ///     view bandwidth, or 0 for a paused client with a full staging
  ///     buffer);
  ///   - room[i]: receive_bandwidth - view_bandwidth when the slot is
  ///     eligible for workahead — staging buffer not full, a receive link
  ///     faster than playback, data left to send — else +0.0. An eligible
  ///     slot's room is positive (receive > view), so room[i] > 0.0 is
  ///     exactly eligibility; and since an eligible buffer is not full, its
  ///     minimum rate is its view bandwidth and room[i] is what a grant pass
  ///     can add to it;
  ///   - order_keys[i]: its grant-order key when eligible, else INT64_MAX.
  ///     The key is the IEEE-754 bit pattern of projected_finish(i, now),
  ///     complemented (~) when !\p earliest_first. Projected finishes of
  ///     eligible slots are positive doubles, whose bit patterns order
  ///     exactly like their values, and ~ reverses that order exactly; so
  ///     the least key is the earliest finish for EFTF and the latest for
  ///     LFTF, and INT64_MAX sorts after every eligible slot.
  /// Then one scalar loop adds the minimum rates and the rooms in slot
  /// order (an ineligible slot's +0.0 leaves the room sum's bits unchanged)
  /// and returns both sums. All three outputs are resized to size().
  GrantSums fill_grant_inputs(Seconds now, bool earliest_first,
                              std::vector<Mbps>& minimum,
                              std::vector<Mbps>& room,
                              std::vector<std::int64_t>& order_keys) const;

  /// Buffer-aware admission's near-term need (AdmissionController::
  /// feasible): adds the view bandwidth of every slot whose staged cover
  /// (level / view_bandwidth) is below \p horizon onto \p need, in slot
  /// order, and returns the sum — the same additions, in the same order, as
  /// the per-request scan over the active list. \p need must be positive.
  Mbps add_near_term_need(Mbps need, Seconds horizon) const;

  /// The per-slot inputs of the intermittent scheduler's passes, in one
  /// vectorized pass: drain[i] = Request::drain_rate(now), cover[i] =
  /// buffer_level / view_bandwidth (seconds of staged playback), and
  /// cap[i] = min(receive_bandwidth,
  /// drain + buffer_headroom / \p absorption_horizon), the most the client
  /// can usefully absorb. Each value is the scalar formula's bit for bit
  /// (the kernel spells out the argument). All three outputs are resized to
  /// size().
  void fill_workahead_inputs(Seconds now, Seconds absorption_horizon,
                             std::vector<Mbps>& drain,
                             std::vector<Seconds>& cover,
                             std::vector<Mbps>& cap) const;

  /// Writes every slot's projected_finish into keys[0..size()) in one
  /// vectorized pass: sort_by_projected_finish's sort keys. \p keys is
  /// resized to size().
  void fill_projected_finish(Seconds now, std::vector<Seconds>& keys) const;

 private:
  /// Number of parallel arrays in the arena (hot-to-cold order below).
  static constexpr std::size_t kArrays = 10;

  /// Grows the table to hold at least \p min_capacity slots: a new arena
  /// with rebound views, and the arrays beside it resized to match. Stride
  /// is rounded to 8 doubles so every array keeps 64-byte alignment.
  void grow(std::size_t min_capacity);

  struct AlignedFree {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  ///< slots per array == arena stride in doubles
  std::unique_ptr<double[], AlignedFree> storage_;

  // Named views into storage_ at offsets k * capacity_, in arena order.
  // Hot, kernel-mutated:
  double* last_update_ = nullptr;
  double* remaining_ = nullptr;
  double* buffer_level_ = nullptr;
  // Hot, kernel-read:
  double* allocation_ = nullptr;
  double* buffer_capacity_ = nullptr;
  double* view_bandwidth_ = nullptr;
  double* arrival_ = nullptr;
  double* playback_end_ = nullptr;
  /// Playback-drain mask: 1.0 while viewing, 0.0 while paused. Stored as a
  /// double so the batch kernel applies it as a multiply (x·1.0 and x·0.0
  /// are bit-exact stand-ins for the scalar path's `if (!paused)`) and the
  /// loop stays free of mixed-width loads that block vectorization.
  double* playing_ = nullptr;
  // Cold tail: read only by the workahead passes, never by the fluid
  // kernel or the predicted-event retime.
  double* receive_bandwidth_ = nullptr;

  /// The active list: exactly size() entries.
  std::vector<Request*> requests_;
  // The other arrays outside the arena hold capacity_ entries (grow()
  // resizes them with the arena); slots at or past size_ are unused.
  std::vector<StreamTraits> traits_;
  /// Urgency latch per slot (0/1).
  std::vector<std::uint8_t> urgent_;
  /// Predicted-event keys per slot.
  std::vector<PredictionKeys> predictions_;
  /// Per slot, the time of its earliest key as an IEEE-754 bit pattern.
  /// Key times are nonnegative (or +inf), and such doubles order exactly
  /// like their bit patterns read as signed integers — whose min reduction
  /// vectorizes where a double min does not.
  std::vector<std::int64_t> earliest_time_bits_;

  /// The lane's earliest live prediction; stale once the holder's keys
  /// were overwritten or dropped, until next_prediction rescans.
  NextPrediction next_;
  bool next_stale_ = false;

  std::vector<std::uint32_t> grant_order_;  ///< see grant_order()
  std::uint64_t version_ = 0;               ///< see version()

  /// After a write to slot \p i's keys: its earliest time, and next_. Every
  /// other slot's keys are at or after the lane's earliest, so a lower key
  /// here takes over; otherwise the earliest stands unless \p i held it.
  void refresh(std::size_t i) {
    const EventKey earliest = earliest_prediction(i);
    assert(earliest.time >= 0.0);
    earliest_time_bits_[i] = std::bit_cast<std::int64_t>(earliest.time);
    if (next_stale_) return;  // the next query rescans anyway
    if (earliest < next_.key) {
      next_ = {earliest, i, earliest_kind(i)};
    } else if (i == next_.slot) {
      next_stale_ = true;
    }
  }
};

/// The least of \p keys (INT64_MAX when empty): the vectorized min pass
/// behind FluidLane::earliest_slot, over fill_grant_inputs' order keys.
std::int64_t least_order_key(const std::vector<std::int64_t>& keys);

}  // namespace vodsim
