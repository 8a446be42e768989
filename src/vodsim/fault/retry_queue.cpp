#include "vodsim/fault/retry_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vodsim {

bool RetryQueue::push(RetryEntry entry) {
  if (entries_.size() >= config_.max_queue) return false;
  entries_.push_back(entry);
  earliest_ = std::min(earliest_, entry.next_attempt);
  return true;
}

void RetryQueue::take_due(Seconds now, bool force, std::vector<RetryEntry>& out) {
  out.clear();
  Seconds earliest = std::numeric_limits<Seconds>::infinity();
  std::size_t kept = 0;
  for (const RetryEntry& entry : entries_) {
    if (force || entry.next_attempt <= now) {
      out.push_back(entry);
    } else {
      earliest = std::min(earliest, entry.next_attempt);
      entries_[kept++] = entry;
    }
  }
  entries_.resize(kept);
  earliest_ = earliest;
}

bool RetryQueue::remove_request(RequestId request) {
  if (request == kNoRetryRequest) return false;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->request == request) {
      const Seconds removed = it->next_attempt;
      entries_.erase(it);
      if (removed == earliest_) earliest_ = recompute_earliest();
      return true;
    }
  }
  return false;
}

Seconds RetryQueue::backoff(int attempts) const {
  // ldexp is exact (scales the exponent), so backoff sequences are
  // bit-reproducible; pow(2, n) need not be.
  const Seconds raw = std::ldexp(config_.backoff_base, attempts);
  return std::min(config_.backoff_cap, raw);
}

Seconds RetryQueue::recompute_earliest() const {
  Seconds earliest = std::numeric_limits<double>::infinity();
  for (const RetryEntry& entry : entries_) {
    earliest = std::min(earliest, entry.next_attempt);
  }
  return earliest;
}

}  // namespace vodsim
