#pragma once

/// \file retry_queue.h
/// \brief Bounded FIFO retry queue with deterministic exponential backoff.
///
/// Holds work the cluster could not serve *right now* — streams orphaned by
/// a crash or shed in a brownout with no feasible migration target, and
/// (optionally) rejected arrivals — so capacity returning can re-admit it
/// instead of the legacy permanently-dropped outcome. Backoff is exact
/// powers of two via std::ldexp (no libm pow, which is not bit-reproducible
/// across platforms), capped; entries exceeding max_attempts or overflowing
/// the bounded queue are abandoned and counted.

#include <cstddef>
#include <limits>
#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/cluster/video.h"
#include "vodsim/engine/config.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// One queued re-admission candidate.
struct RetryEntry {
  /// Parked orphan stream to resume, or kNoRetryRequest for a rejected
  /// arrival that would start a fresh stream on success.
  RequestId request = -1;
  VideoId video = -1;
  Mbps view_bandwidth = 0.0;
  Seconds first_seen = 0.0;    ///< when the entry entered the queue
  int attempts = 0;            ///< failed re-admission attempts so far
  Seconds next_attempt = 0.0;  ///< earliest time the next attempt may run
};

inline constexpr RequestId kNoRetryRequest = -1;

/// Deterministic bounded retry queue. Pure container: the engine decides
/// when to call take_due and what to do with the entries.
class RetryQueue {
 public:
  explicit RetryQueue(const RetryConfig& config) : config_(config) {}

  /// Enqueues; returns false when full.
  bool push(RetryEntry entry);

  /// Removes the entries whose next_attempt has arrived (all entries when
  /// \p force — used on server-up / brownout-end, where capacity just
  /// returned and waiting out the backoff would be silly) into \p out,
  /// which is cleared first and keeps its capacity. FIFO order is
  /// preserved, in \p out and in the queue.
  void take_due(Seconds now, bool force, std::vector<RetryEntry>& out);

  /// As above, into a new vector.
  std::vector<RetryEntry> take_due(Seconds now, bool force) {
    std::vector<RetryEntry> due;
    take_due(now, force, due);
    return due;
  }

  /// Drops the entry for \p request if present (the parked stream's
  /// playback window closed). Returns true when something was removed.
  bool remove_request(RequestId request);

  /// Backoff delay after \p attempts failures: min(cap, base * 2^attempts).
  Seconds backoff(int attempts) const;

  /// Earliest next_attempt over queued entries; +infinity when empty.
  /// Cached: push, take_due and remove_request keep it current.
  Seconds next_attempt_time() const { return earliest_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const RetryConfig& config() const { return config_; }

 private:
  /// The least next_attempt over entries_ (+infinity when empty).
  Seconds recompute_earliest() const;

  RetryConfig config_;
  std::vector<RetryEntry> entries_;  ///< FIFO (push order)
  Seconds earliest_ = std::numeric_limits<Seconds>::infinity();
};

}  // namespace vodsim
