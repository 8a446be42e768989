#include "vodsim/des/simulator.h"

#include <algorithm>
#include <cassert>

namespace vodsim {

EventId Simulator::schedule_at(Seconds time, EventFn fn) {
  return queue_.schedule(std::max(time, now_), std::move(fn));
}

EventId Simulator::schedule_in(Seconds delay, EventFn fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

void Simulator::cancel(EventId id) { queue_.cancel(id); }

bool Simulator::reschedule_at(Seconds time, EventId id) {
  return queue_.reschedule(id, std::max(time, now_));
}

EventId Simulator::schedule_keyed(Seconds time, std::uint64_t seq, EventFn fn) {
  assert(time >= now_);
  return queue_.schedule_keyed(time, seq, std::move(fn));
}

bool Simulator::rekey(EventId id, Seconds time, std::uint64_t seq) {
  assert(time >= now_);
  return queue_.rekey(id, time, seq);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [time, fn] = queue_.pop();
  assert(time >= now_);
  now_ = time;
  ++executed_;
  fn(time);
  if (post_event_hook_) post_event_hook_(time);
  return true;
}

void Simulator::run_until(Seconds horizon) {
  while (!queue_.empty() && queue_.peek_time() <= horizon) {
    step();
  }
  now_ = std::max(now_, horizon);
}

std::uint64_t Simulator::run_before(Seconds horizon) {
  std::uint64_t executed = 0;
  while (!queue_.empty() && queue_.peek_time() < horizon) {
    step();
    ++executed;
  }
  return executed;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace vodsim
