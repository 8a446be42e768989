#include "vodsim/cluster/fluid_lane.h"

#include <cassert>
#include <limits>

#include "vodsim/cluster/request.h"

namespace vodsim {

namespace {

/// Shared attribute set for the batch kernels. Free functions because GCC
/// honours __restrict on function parameters but not on locals initialised
/// from member loads — without it, the pointer count needs more runtime
/// alias checks than the vectorizer will version
/// (--param vect-max-version-for-alias-checks). __restrict is sound: every
/// pointer addresses a distinct arena array (or the engine-owned scratch),
/// so no two can overlap. noinline keeps the restrict qualifiers from being
/// dropped when a body is folded into its caller; one call per batch is
/// noise next to the loop.
///
/// target_clones emits an SSE2 baseline plus AVX2 and AVX-512F clones
/// picked at load time, doubling (and doubling again) the vector width on
/// hosts that have them. Safe for both reproducibility and bit-identity:
/// dispatch is fixed per machine, per-lane vaddpd/vmulpd/vmaxpd/vdivpd
/// semantics equal their scalar counterparts at any width, and this TU is
/// built with -ffp-contract=off (see src/CMakeLists.txt) so no clone can
/// fuse multiply-adds into FMAs that round differently from the scalar
/// path.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VODSIM_BATCH_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef VODSIM_BATCH_KERNEL_CLONES
#define VODSIM_BATCH_KERNEL_CLONES
#endif

/// The lane arena guarantees 64-byte alignment for every array it owns
/// (FluidLane::grow); telling the vectorizer saves the peel/remainder
/// scalar loops. Alignment hints change codegen only, never FP results.
inline double* assume_lane_aligned(double* p) {
  return static_cast<double*>(__builtin_assume_aligned(p, 64));
}
inline const double* assume_lane_aligned(const double* p) {
  return static_cast<const double*>(__builtin_assume_aligned(p, 64));
}

/// The vectorized heart of FluidLane::advance_batch: per-stream state
/// updates only, no reductions (see the caller for why the metering sum is
/// a separate pass). underflow_out is the engine's std::vector scratch and
/// carries no alignment guarantee.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void advance_states(
    std::size_t n, Seconds now, Seconds* __restrict last_update,
    Megabits* __restrict remaining, Megabits* __restrict buffer_level,
    const Megabits* __restrict buffer_capacity,
    const Mbps* __restrict allocation, const Mbps* __restrict view_bandwidth,
    const Seconds* __restrict arrival, const Seconds* __restrict playback_end,
    const double* __restrict playing, Megabits* __restrict underflow_out) {
  last_update = assume_lane_aligned(last_update);
  remaining = assume_lane_aligned(remaining);
  buffer_level = assume_lane_aligned(buffer_level);
  buffer_capacity = assume_lane_aligned(buffer_capacity);
  allocation = assume_lane_aligned(allocation);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  arrival = assume_lane_aligned(arrival);
  playback_end = assume_lane_aligned(playback_end);
  playing = assume_lane_aligned(playing);
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds start = last_update[i];
    const Seconds dt = now - start;

    const Megabits inflow = allocation[i] * std::max(0.0, dt);
    remaining[i] = std::max(0.0, remaining[i] - inflow);

    const Seconds play_span =
        std::min(now, playback_end[i]) - std::max(start, arrival[i]);
    const Megabits outflow =
        view_bandwidth[i] * std::max(0.0, play_span) * playing[i];

    const Megabits level = buffer_level[i] + (inflow - outflow);
    const Megabits raw_underflow = std::max(0.0, 0.0 - level);
    buffer_level[i] = std::min(std::max(level, 0.0), buffer_capacity[i]);
    underflow_out[i] =
        raw_underflow > StagingBuffer::kLevelTolerance ? raw_underflow : 0.0;

    last_update[i] = now;
  }
}

/// Batched EFTF/LFTF sort keys: fluid_detail::projected_finish per slot.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void projected_finish_keys(
    std::size_t n, Seconds now, const Megabits* __restrict remaining,
    const Mbps* __restrict view_bandwidth, Seconds* __restrict keys) {
  remaining = assume_lane_aligned(remaining);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = fluid_detail::projected_finish(now, remaining[i], view_bandwidth[i]);
  }
}

/// Batched intermittent-scheduler inputs (FluidLane::fill_workahead_inputs).
/// Bit-identity with the scalar Request formulas, term by term:
///   - drain_rate(now) is view_bandwidth when playing and inside
///     [arrival, playback_end), else 0; here view_bandwidth · in_window ·
///     playing, where x·1.0 == x and x·0.0 == +0.0 bitwise (view
///     bandwidths are positive) — the same re-expression as
///     fluid_detail::predicted_times.
///   - cover = level / view_bandwidth: the same division.
///   - cap = min(receive, drain + headroom / horizon) in std::min's operand
///     order: the scalar absorption cap and its clip to the receive
///     bandwidth. Request::buffer_headroom's `capacity > level ? capacity -
///     level : 0.0` is written max(capacity - level, 0.0), which computes
///     the subtraction unconditionally (if-conversion may not speculate a
///     guarded FP operation) and selects the same bits: capacity - level
///     when positive, +0.0 at equality (x - x is +0.0, and max keeps its
///     first operand on a tie), 0.0 when negative.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void workahead_inputs(
    std::size_t n, Seconds now, Seconds horizon,
    const Megabits* __restrict buffer_level,
    const Megabits* __restrict buffer_capacity,
    const Mbps* __restrict view_bandwidth, const Seconds* __restrict arrival,
    const Seconds* __restrict playback_end, const double* __restrict playing,
    const Mbps* __restrict receive_bandwidth, Mbps* __restrict drain_out,
    Seconds* __restrict cover_out, Mbps* __restrict cap_out) {
  buffer_level = assume_lane_aligned(buffer_level);
  buffer_capacity = assume_lane_aligned(buffer_capacity);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  arrival = assume_lane_aligned(arrival);
  playback_end = assume_lane_aligned(playback_end);
  playing = assume_lane_aligned(playing);
  receive_bandwidth = assume_lane_aligned(receive_bandwidth);
  for (std::size_t i = 0; i < n; ++i) {
    const double in_window =
        (now >= arrival[i]) && (now < playback_end[i]) ? 1.0 : 0.0;
    const Mbps drain = view_bandwidth[i] * in_window * playing[i];
    const Megabits level = buffer_level[i];
    const Megabits headroom = std::max(buffer_capacity[i] - level, 0.0);
    drain_out[i] = drain;
    cover_out[i] = level / view_bandwidth[i];
    cap_out[i] = std::min(receive_bandwidth[i], drain + headroom / horizon);
  }
}

/// Batched predicted-event retiming: fluid_detail::predicted_times per
/// slot (branch-free, so the loop vectorizes; the bit-identity argument is
/// at the formula).
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void predicted_event_times(
    std::size_t n, Seconds now, double safety_cover,
    const Megabits* __restrict remaining, const Mbps* __restrict allocation,
    const Megabits* __restrict buffer_level,
    const Megabits* __restrict buffer_capacity,
    const Mbps* __restrict view_bandwidth, const Seconds* __restrict arrival,
    const Seconds* __restrict playback_end, const double* __restrict playing,
    Seconds* __restrict tx_out, Seconds* __restrict full_out,
    Seconds* __restrict low_out) {
  remaining = assume_lane_aligned(remaining);
  allocation = assume_lane_aligned(allocation);
  buffer_level = assume_lane_aligned(buffer_level);
  buffer_capacity = assume_lane_aligned(buffer_capacity);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  arrival = assume_lane_aligned(arrival);
  playback_end = assume_lane_aligned(playback_end);
  playing = assume_lane_aligned(playing);
  for (std::size_t i = 0; i < n; ++i) {
    const fluid_detail::PredictedTimes times = fluid_detail::predicted_times(
        now, safety_cover, remaining[i], allocation[i], buffer_level[i],
        buffer_capacity[i], view_bandwidth[i], arrival[i], playback_end[i],
        playing[i]);
    tx_out[i] = times.tx_complete;
    full_out[i] = times.buffer_full;
    low_out[i] = times.buffer_low;
  }
}

/// The least of \p n integers: FluidLane::earliest_slot's first pass.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) std::int64_t least_time_bits(
    std::size_t n, const std::int64_t* __restrict bits) {
  std::int64_t least = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < n; ++i) least = std::min(least, bits[i]);
  return least;
}

}  // namespace

FluidLane& FluidLane::operator=(const FluidLane& other) {
  if (this == &other) return *this;
  size_ = 0;  // nothing to preserve; grow copies only size_ slots
  if (other.size_ > capacity_) grow(other.size_);
  const double* const src[kArrays] = {
      other.last_update_, other.remaining_,      other.buffer_level_,
      other.allocation_,  other.buffer_capacity_, other.view_bandwidth_,
      other.arrival_,     other.playback_end_,    other.playing_,
      other.receive_bandwidth_};
  double* const dst[kArrays] = {
      last_update_, remaining_,      buffer_level_, allocation_,
      buffer_capacity_, view_bandwidth_, arrival_,  playback_end_,
      playing_,     receive_bandwidth_};
  for (std::size_t k = 0; k < kArrays; ++k) {
    if (other.size_ > 0) std::copy(src[k], src[k] + other.size_, dst[k]);
  }
  size_ = other.size_;
  urgent_ = other.urgent_;
  predictions_ = other.predictions_;
  earliest_time_bits_ = other.earliest_time_bits_;
  return *this;
}

void FluidLane::grow(std::size_t min_capacity) {
  std::size_t cap = std::max<std::size_t>(capacity_ * 2, 64);
  while (cap < min_capacity) cap *= 2;
  // Stride in whole cache lines: every array starts 64-byte aligned.
  cap = (cap + 7) & ~static_cast<std::size_t>(7);

  double* const raw = static_cast<double*>(::operator new[](
      kArrays * cap * sizeof(double), std::align_val_t{64}));
  std::unique_ptr<double[], AlignedFree> fresh(raw);

  double* const old_views[kArrays] = {
      last_update_, remaining_,    buffer_level_,   allocation_,
      buffer_capacity_, view_bandwidth_, arrival_,  playback_end_,
      playing_,     receive_bandwidth_};
  double* views[kArrays];
  for (std::size_t k = 0; k < kArrays; ++k) {
    views[k] = raw + k * cap;
    if (size_ > 0) std::copy(old_views[k], old_views[k] + size_, views[k]);
  }

  storage_ = std::move(fresh);
  capacity_ = cap;
  last_update_ = views[0];
  remaining_ = views[1];
  buffer_level_ = views[2];
  allocation_ = views[3];
  buffer_capacity_ = views[4];
  view_bandwidth_ = views[5];
  arrival_ = views[6];
  playback_end_ = views[7];
  playing_ = views[8];
  receive_bandwidth_ = views[9];
}

void FluidLane::reserve(std::size_t n) {
  if (n > capacity_) grow(n);
  urgent_.reserve(n);
  predictions_.reserve(n);
  earliest_time_bits_.reserve(n);
}

void FluidLane::append(const Request& request) {
  if (size_ == capacity_) grow(size_ + 1);
  const std::size_t i = size_;
  last_update_[i] = request.last_update();
  remaining_[i] = request.remaining();
  buffer_level_[i] = request.buffer_level();
  allocation_[i] = request.allocation();
  buffer_capacity_[i] = request.buffer_capacity();
  view_bandwidth_[i] = request.view_bandwidth();
  arrival_[i] = request.arrival();
  playback_end_[i] = request.playback_end();
  playing_[i] = request.viewing_paused() ? 0.0 : 1.0;
  receive_bandwidth_[i] = request.receive_bandwidth();
  urgent_.push_back(request.workahead_urgent() ? 1 : 0);
  predictions_.push_back(kNoPredictions);
  earliest_time_bits_.push_back(std::bit_cast<std::int64_t>(kNoEventKey.time));
  ++size_;
}

void FluidLane::swap_remove(std::size_t index) {
  assert(index < size_);
  // The engine clears a stream's predictions before it detaches.
  assert(!earliest_prediction(index).live());
  const std::size_t last = size_ - 1;
  last_update_[index] = last_update_[last];
  remaining_[index] = remaining_[last];
  buffer_level_[index] = buffer_level_[last];
  allocation_[index] = allocation_[last];
  buffer_capacity_[index] = buffer_capacity_[last];
  view_bandwidth_[index] = view_bandwidth_[last];
  arrival_[index] = arrival_[last];
  playback_end_[index] = playback_end_[last];
  playing_[index] = playing_[last];
  receive_bandwidth_[index] = receive_bandwidth_[last];
  urgent_[index] = urgent_[last];
  urgent_.pop_back();
  predictions_[index] = predictions_[last];
  predictions_.pop_back();
  earliest_time_bits_[index] = earliest_time_bits_[last];
  earliest_time_bits_.pop_back();
  --size_;
}

Prediction FluidLane::earliest_kind(std::size_t i) const {
  const PredictionKeys& keys = predictions_[i];
  std::size_t kind = 0;
  if (keys[1] < keys[kind]) kind = 1;
  if (keys[2] < keys[kind]) kind = 2;
  return static_cast<Prediction>(kind);
}

std::size_t FluidLane::earliest_slot() const {
  if (size_ == 0) return 0;
  // A vectorized pass finds the least time; the first slot at it is the
  // answer unless a later slot ties on time and wins on seq, as the queue
  // breaks ties. A lane with no live key has every slot at +inf with no
  // live seq, and returns size().
  const std::int64_t least = least_time_bits(size_, earliest_time_bits_.data());
  std::size_t best = 0;
  while (earliest_time_bits_[best] != least) ++best;
  for (std::size_t i = best + 1; i < size_; ++i) {
    if (earliest_time_bits_[i] == least &&
        earliest_prediction(i) < earliest_prediction(best)) {
      best = i;
    }
  }
  return earliest_prediction(best).live() ? best : size_;
}

FluidLane::BatchResult FluidLane::advance_batch(
    Seconds now, Seconds window_start, Seconds window_end,
    Megabits& transmitted, std::vector<Megabits>& underflow_scratch) {
  const std::size_t n = size_;
  // resize, not assign: advance_states stores every slot unconditionally,
  // so pre-zeroing would be a wasted O(n) pass.
  underflow_scratch.resize(n);

  BatchResult result;
  // Metering upper clip is batch-constant; the lower clip depends on each
  // stream's last update. Gating matches Metrics::record_transmission
  // exactly (rate <= 0 and empty clipped intervals contribute nothing).
  const Seconds meter_hi = std::min(now, window_end);

  const Seconds* const last_update = last_update_;
  const Mbps* const allocation = allocation_;
  const Megabits* const underflow_out = underflow_scratch.data();

  // Branchless re-expression of fluid_detail::advance_stream, bit-identical
  // per stream so the branchy skips become unconditional arithmetic and the
  // state loop vectorizes ("not vectorized: control flow in loop"
  // otherwise):
  //   - No state array ever holds -0.0 (levels/remaining come from
  //     max(0.0, x), which yields +0.0; rates and times are nonnegative
  //     inputs), so the identities x + 0.0 == x, x - 0.0 == x,
  //     x * 0.0 == +0.0 and x * 1.0 == x hold *bitwise* everywhere below.
  //   - std::max(a, b) is (a < b) ? b : a; each call's argument order is
  //     chosen so the branch it replaces selects the same operand. The
  //     negated level is written 0.0 - level, not -level (unary FP negate
  //     defeats GCC's if-conversion); inside max(0.0, .) the two are
  //     bit-equivalent, including at level == +0.0.
  //   - A dt <= 0 stream therefore contributes +0.0 to every accumulator
  //     and rewrites its own state with the same bits, matching the scalar
  //     path's early-out exactly. Likewise a zero-rate or out-of-window
  //     stream adds +0.0 to the meter, which leaves its bits unchanged
  //     (the meter starts at +0.0 and never holds -0.0) — exactly the
  //     no-op Metrics::record_transmission's early returns make.
  //   - The playback gate `if (!paused)` becomes a multiply by the 1.0/0.0
  //     playing mask; the baseline build has no FMA, so no contraction can
  //     fuse these multiplies differently from the scalar path.
  //
  // The kernel runs in three passes because GCC refuses to vectorize a loop
  // carrying FP sum/max reductions without value-changing reassociation:
  // a light scalar pass does the metering sum and advanced count (reading
  // only last_update/allocation, both still pre-update), the heavy
  // per-stream state arithmetic runs reduction-free and vectorized in
  // advance_states, and a final scan folds the scratch into any_underflow.
  // The split changes no operation or order: the metering terms are added
  // to the running meter in slot order (= active order), one per stream,
  // just as one record_transmission call per stream adds them, and the
  // passes touch disjoint values.
  Megabits meter = transmitted;
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds start = last_update[i];
    advanced += static_cast<std::size_t>(now - start > 0.0);
    meter +=
        allocation[i] * std::max(0.0, meter_hi - std::max(start, window_start));
  }
  transmitted = meter;

  advance_states(n, now, last_update_, remaining_, buffer_level_,
                 buffer_capacity_, allocation_, view_bandwidth_, arrival_,
                 playback_end_, playing_, underflow_scratch.data());

  Megabits max_underflow = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_underflow = std::max(max_underflow, underflow_out[i]);
  }
  result.advanced = advanced;
  result.any_underflow = max_underflow > 0.0;
  return result;
}

Mbps FluidLane::sum_minimum_rates(std::vector<Mbps>& rates) const {
  const std::size_t n = size_;
  rates.assign(n, 0.0);
  Mbps committed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Request::minimum_rate: 0 only for a paused client whose staging disk
    // is full (within StagingBuffer::kLevelTolerance), else the view rate.
    const bool full =
        buffer_level_[i] >= buffer_capacity_[i] - StagingBuffer::kLevelTolerance;
    const Mbps rate = (playing_[i] == 0.0 && full) ? 0.0 : view_bandwidth_[i];
    rates[i] = rate;
    committed += rate;
  }
  return committed;
}

Mbps FluidLane::eligible_slots(std::vector<std::size_t>& out) const {
  const std::size_t n = size_;
  out.clear();
  Mbps room = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!buffer_full(i) && receive_bandwidth_[i] > view_bandwidth_[i] &&
        remaining_[i] > Request::kRemainingTolerance) {
      out.push_back(i);
      room += receive_bandwidth_[i] - view_bandwidth_[i];
    }
  }
  return room;
}

Mbps FluidLane::add_near_term_need(Mbps need, Seconds horizon) const {
  const std::size_t n = size_;
  for (std::size_t i = 0; i < n; ++i) {
    // Branch-free: a coasting slot adds +0.0, which leaves the running sum's
    // bits unchanged (it starts positive, so it is never -0.0) — the same
    // result as skipping the slot. Cover is Request::buffer_cover.
    const bool near = buffer_level_[i] / view_bandwidth_[i] < horizon;
    need += near ? view_bandwidth_[i] : 0.0;
  }
  return need;
}

void FluidLane::fill_projected_finish(Seconds now,
                                      std::vector<Seconds>& keys) const {
  keys.resize(size_);
  projected_finish_keys(size_, now, remaining_, view_bandwidth_, keys.data());
}

void FluidLane::fill_workahead_inputs(Seconds now, Seconds absorption_horizon,
                                      std::vector<Mbps>& drain,
                                      std::vector<Seconds>& cover,
                                      std::vector<Mbps>& cap) const {
  const std::size_t n = size_;
  drain.resize(n);
  cover.resize(n);
  cap.resize(n);
  workahead_inputs(n, now, absorption_horizon, buffer_level_, buffer_capacity_,
                   view_bandwidth_, arrival_, playback_end_, playing_,
                   receive_bandwidth_, drain.data(), cover.data(), cap.data());
}

void FluidLane::fill_predicted_times(Seconds now, double safety_cover,
                                     std::vector<Seconds>& tx_at,
                                     std::vector<Seconds>& full_at,
                                     std::vector<Seconds>& low_at) const {
  const std::size_t n = size_;
  tx_at.resize(n);
  full_at.resize(n);
  low_at.resize(n);
  predicted_event_times(n, now, safety_cover, remaining_, allocation_,
                        buffer_level_, buffer_capacity_, view_bandwidth_,
                        arrival_, playback_end_, playing_, tx_at.data(),
                        full_at.data(), low_at.data());
}

}  // namespace vodsim
