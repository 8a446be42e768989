#pragma once

/// \file simulator.h
/// \brief Discrete-event simulator: clock + event queue + run loop.
///
/// Handlers may schedule and cancel further events (reentrancy is the normal
/// mode of operation). Time never goes backwards: scheduling before now()
/// clamps to now(), so a handler can safely request "immediately after this
/// event" follow-ups.

#include <cstdint>
#include <functional>
#include <utility>

#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Simulator {
 public:
  Simulator() = default;

  /// Current simulation time (seconds). Starts at 0.
  Seconds now() const { return now_; }

  /// Schedules \p fn at absolute time max(time, now()).
  EventId schedule_at(Seconds time, EventFn fn);

  /// Schedules \p fn at now() + max(delay, 0).
  EventId schedule_in(Seconds delay, EventFn fn);

  /// Cancels a pending event (no-op on invalid/fired handles).
  void cancel(EventId id);

  /// Retimes a pending event to absolute time max(time, now()) in place —
  /// same clock clamp as schedule_at, same handle, same handler. Returns
  /// false (no-op) on invalid/fired handles; the caller schedules afresh.
  bool reschedule_at(Seconds time, EventId id);

  /// Fires the earliest pending event. Returns false if none remain.
  bool step();

  /// Runs events with time <= horizon, then advances the clock exactly to
  /// horizon (even if the queue empties earlier).
  void run_until(Seconds horizon);

  /// Runs events with time strictly < horizon and stops; the clock is left
  /// at the last executed event (NOT clamped to horizon). This is the
  /// drain primitive of the sharded engine's conservative-lookahead
  /// windows: a shard may execute everything before the next coupling
  /// event at `horizon`, but must not consume the clock up to it —
  /// events scheduled *at* horizon by the coordinator still belong to
  /// the next window. Returns the number of events executed.
  std::uint64_t run_before(Seconds horizon);

  /// Runs until the queue is empty.
  void run();

  /// Number of events executed so far (diagnostic/bench metric).
  std::uint64_t executed_count() const { return executed_; }

  /// Live pending events.
  std::size_t pending_count() const { return queue_.size(); }

  /// Earliest pending event time; call only when pending_count() > 0.
  /// The sharded run loop peeks every shard queue to size each
  /// conservative-lookahead window before dispatching the drains.
  Seconds peek_time() const { return queue_.peek_time(); }

  /// Observer invoked after every executed event, with the event's time.
  /// At most one hook; empty (the default) disables it, leaving one branch
  /// on the hot path. Used by the paranoid-mode invariant auditor.
  using PostEventHook = std::function<void(Seconds)>;
  void set_post_event_hook(PostEventHook hook) {
    post_event_hook_ = std::move(hook);
  }

 private:
  EventQueue queue_;
  Seconds now_ = 0.0;
  std::uint64_t executed_ = 0;
  PostEventHook post_event_hook_;
};

}  // namespace vodsim
