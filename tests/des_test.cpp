// Tests for the discrete-event kernel: ordering, cancellation, reentrancy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "vodsim/des/event_queue.h"
#include "vodsim/des/simulator.h"

namespace vodsim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  queue.schedule(2.0, [&](Seconds) { fired.push_back(2); });
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    fn(time);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5.0, [&fired, i](Seconds) { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().second(5.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1.0, [&](Seconds) { fired = true; });
  queue.schedule(2.0, [](Seconds) {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1u);
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelInvalidIsNoop) {
  EventQueue queue;
  queue.cancel(kInvalidEventId);
  queue.cancel(9999);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(id);
  queue.cancel(id);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.schedule(1.0, [](Seconds) {});
  queue.schedule(2.0, [](Seconds) {});
  queue.cancel(early);
  EXPECT_DOUBLE_EQ(queue.peek_time(), 2.0);
}

TEST(EventQueue, ManyScheduleCancelCycles) {
  EventQueue queue;
  int fired = 0;
  for (int round = 0; round < 1000; ++round) {
    const EventId keep =
        queue.schedule(static_cast<double>(round), [&](Seconds) { ++fired; });
    const EventId drop = queue.schedule(static_cast<double>(round) + 0.5,
                                        [&](Seconds) { FAIL() << "cancelled"; });
    queue.cancel(drop);
    (void)keep;
  }
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, 1000);
}

TEST(EventQueue, CancelChurnRemovesEntriesEagerlyAndPreservesOrdering) {
  // cancel() removes its heap entry in place (sift-out through the position
  // index), so dead entries never accumulate. The removals must not disturb
  // firing order — neither across times nor the schedule-order tie-break at
  // equal times.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  // Interleave survivors with events that will all be cancelled. Half the
  // survivors share one timestamp to exercise the equal-time tie-break
  // across the removal churn.
  for (int i = 0; i < 4000; ++i) {
    const Seconds time = (i % 2 == 0) ? 500.0 : static_cast<double>(i);
    queue.schedule(time, [&fired, i](Seconds) { fired.push_back(i); });
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.25, [](Seconds) {}));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.75, [](Seconds) {}));
  }
  EXPECT_EQ(queue.heap_entries(), 12000u);
  for (const EventId id : doomed) queue.cancel(id);
  // Eager removal: the heap holds exactly the live events, immediately.
  EXPECT_EQ(queue.heap_entries(), 4000u);
  queue.schedule(1e9, [](Seconds) {});
  EXPECT_EQ(queue.heap_entries(), queue.size());
  EXPECT_EQ(queue.size(), 4001u);

  std::vector<int> expected;
  Seconds last = -1.0;
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    EXPECT_GE(time, last);
    last = time;
    fn(time);
  }
  // Reconstruct the required order: ascending time, schedule order at ties.
  std::vector<std::pair<Seconds, int>> keyed;
  for (int i = 0; i < 4000; ++i) {
    keyed.emplace_back((i % 2 == 0) ? 500.0 : static_cast<double>(i), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [time, index] : keyed) expected.push_back(index);
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, RescheduleMovesEventBothDirections) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  const EventId mid = queue.schedule(2.0, [&](Seconds) { fired.push_back(2); });
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });

  EXPECT_TRUE(queue.reschedule(mid, 0.5));  // earlier: sift up
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));

  fired.clear();
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  const EventId front =
      queue.schedule(0.5, [&](Seconds) { fired.push_back(2); });
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });
  EXPECT_TRUE(queue.reschedule(front, 2.0));  // later: sift down
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RescheduleKeepsHandleValidAndHeapFlat) {
  // The whole point of retiming: no dead entry left in the heap, no new
  // slot, and the original handle keeps working across many retimes.
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1.0, [&](Seconds) { fired = true; });
  const std::size_t entries = queue.heap_entries();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(queue.reschedule(id, 1.0 + static_cast<double>(i)));
  }
  EXPECT_EQ(queue.heap_entries(), entries);  // zero churn
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.peek_time(), 100.0);
  queue.cancel(id);  // handle still owns the slot
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RescheduleConsumesSeqSoEqualTimeTiesMatchCancelPlusSchedule) {
  // Determinism contract: a retimed event must tie with equal-time events
  // exactly as a cancel+fresh-schedule would — i.e. it loses the tie-break
  // against everything scheduled before the retime, despite its original
  // seq being older.
  EventQueue queue;
  std::vector<int> fired;
  const EventId moved =
      queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  queue.schedule(5.0, [&](Seconds) { fired.push_back(2); });
  EXPECT_TRUE(queue.reschedule(moved, 5.0));
  while (!queue.empty()) queue.pop().second(5.0);
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  // And the seq counter advanced, mirroring the replaced schedule call.
  EXPECT_EQ(queue.scheduled_count(), 3u);
}

TEST(EventQueue, RescheduleDeadOrStaleIdReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.reschedule(kInvalidEventId, 1.0));
  EXPECT_FALSE(queue.reschedule(9999, 1.0));

  const EventId cancelled = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(cancelled);
  EXPECT_FALSE(queue.reschedule(cancelled, 2.0));

  const EventId fired_id = queue.schedule(1.0, [](Seconds) {});
  queue.pop().second(1.0);
  EXPECT_FALSE(queue.reschedule(fired_id, 2.0));

  // Slot recycled under a stale handle: the retime must target nothing.
  bool survivor_moved_early = false;
  const EventId recycled = queue.schedule(7.0, [&](Seconds time) {
    survivor_moved_early = time < 7.0;
  });
  (void)recycled;
  EXPECT_FALSE(queue.reschedule(fired_id, 0.0));  // may alias the same slot
  auto [time, fn] = queue.pop();
  fn(time);
  EXPECT_DOUBLE_EQ(time, 7.0);
  EXPECT_FALSE(survivor_moved_early);
}

TEST(EventQueue, KeyedSchedulingConsumesNoSeq) {
  // take_seq consumes exactly what schedule() would; schedule_keyed and
  // rekey consume nothing, so a caller-held key orders exactly as the
  // direct schedule it stands for.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(5.0, [&](Seconds) { fired.push_back(1); });       // seq 1
  const std::uint64_t seq = queue.take_seq();                      // seq 2
  EXPECT_EQ(seq, 2u);
  const EventId keyed =
      queue.schedule_keyed(5.0, seq, [&](Seconds) { fired.push_back(2); });
  EXPECT_EQ(queue.scheduled_count(), 2u);
  queue.schedule(5.0, [&](Seconds) { fired.push_back(3); });       // seq 3
  // Rekeyed behind the seq-3 event, then back ahead of it: no seq taken.
  EXPECT_TRUE(queue.rekey(keyed, 5.0, 4));
  EXPECT_TRUE(queue.rekey(keyed, 5.0, seq));
  EXPECT_EQ(queue.scheduled_count(), 3u);
  while (!queue.empty()) queue.pop().second(5.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RekeyDeadOrStaleIdReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.rekey(kInvalidEventId, 1.0, 1));
  EXPECT_FALSE(queue.rekey(9999, 1.0, 1));

  const EventId cancelled = queue.schedule_keyed(1.0, queue.take_seq(), [](Seconds) {});
  queue.cancel(cancelled);
  EXPECT_FALSE(queue.rekey(cancelled, 2.0, 5));

  const EventId fired_id = queue.schedule_keyed(1.0, queue.take_seq(), [](Seconds) {});
  queue.pop().second(1.0);
  EXPECT_FALSE(queue.rekey(fired_id, 2.0, 6));

  // The fired handle's slot recycled under a new event: rekeying through
  // the stale handle must not move it.
  queue.schedule(7.0, [](Seconds) {});
  EXPECT_FALSE(queue.rekey(fired_id, 0.0, 1));
  EXPECT_DOUBLE_EQ(queue.peek_time(), 7.0);
  EXPECT_EQ(queue.scheduled_count(), 3u);  // failed rekeys took nothing
}

TEST(EventQueue, RescheduleAfterCancelChurnUsesMaintainedPositions) {
  // Every eager cancel moves an unrelated entry into the freed hole and
  // sifts it, rewriting position indices throughout the heap. A retime
  // issued afterwards must land on the entry's *current* position, not
  // where it sat before the churn.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  std::vector<EventId> movers;
  for (int i = 0; i < 2000; ++i) {
    movers.push_back(queue.schedule(1000.0 + static_cast<double>(i),
                                    [&fired, i](Seconds) { fired.push_back(i); }));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.25, [](Seconds) {}));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.75, [](Seconds) {}));
  }
  for (const EventId id : doomed) queue.cancel(id);
  queue.schedule(1e9, [](Seconds) {});
  ASSERT_EQ(queue.size(), 2001u);
  // Retime every survivor into reversed order.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(queue.reschedule(movers[static_cast<std::size_t>(i)],
                                 3000.0 - static_cast<double>(i)));
  }
  while (!queue.empty()) queue.pop().second(0.0);
  ASSERT_EQ(fired.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1999 - i);
  }
}

TEST(EventQueue, MixedRescheduleCancelChurnMatchesReferenceOrder) {
  // Deterministic pseudo-random churn of schedule/cancel/reschedule against
  // a naive reference model of the contract: live events fire in ascending
  // (time, seq) where reschedule assigns a fresh seq.
  EventQueue queue;
  struct Ref {
    Seconds time;
    std::uint64_t seq;
    int tag;
  };
  std::vector<EventId> ids;
  std::vector<Ref> ref;       // parallel to ids; seq 0 = dead
  std::vector<int> fired;
  std::uint64_t seq = 0;
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t roll = next() % 100;
    if (roll < 50 || ids.empty()) {
      const Seconds time = static_cast<double>(next() % 1000);
      const int tag = op;
      ids.push_back(queue.schedule(time, [&fired, tag](Seconds) {
        fired.push_back(tag);
      }));
      ref.push_back({time, ++seq, tag});
    } else if (roll < 80) {
      const std::size_t pick = next() % ids.size();
      const Seconds time = static_cast<double>(next() % 1000);
      const bool ok = queue.reschedule(ids[pick], time);
      EXPECT_EQ(ok, ref[pick].seq != 0);
      if (ok) {
        ref[pick].time = time;
        ref[pick].seq = ++seq;
      }
    } else {
      const std::size_t pick = next() % ids.size();
      queue.cancel(ids[pick]);
      ref[pick].seq = 0;
    }
  }
  std::vector<Ref> live;
  for (const Ref& r : ref) {
    if (r.seq != 0) live.push_back(r);
  }
  std::sort(live.begin(), live.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  ASSERT_EQ(queue.size(), live.size());
  while (!queue.empty()) queue.pop().second(0.0);
  ASSERT_EQ(fired.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(fired[i], live[i].tag);
  }
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  // After an event fires (or is cancelled), its slot is recycled with a
  // bumped generation. An id retained from the old occupant must not be
  // able to kill the slot's new event.
  EventQueue queue;
  const EventId stale = queue.schedule(1.0, [](Seconds) {});
  queue.pop().second(1.0);  // fires; slot 0 freed

  bool fired = false;
  const EventId fresh = queue.schedule(2.0, [&](Seconds) { fired = true; });
  // Slot is reused, so the ids alias the same slot but differ by generation.
  EXPECT_NE(stale, fresh);
  queue.cancel(stale);  // must be a no-op
  EXPECT_EQ(queue.size(), 1u);
  queue.pop().second(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelledIdStaysStaleAfterSlotReuse) {
  EventQueue queue;
  const EventId first = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(first);
  bool fired = false;
  queue.schedule(2.0, [&](Seconds) { fired = true; });
  queue.cancel(first);  // double cancel aimed at a recycled slot: no-op
  EXPECT_EQ(queue.size(), 1u);
  queue.pop().second(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduledCountIsMonotone) {
  EventQueue queue;
  std::uint64_t last = queue.scheduled_count();
  EXPECT_EQ(last, 0u);
  for (int i = 0; i < 3000; ++i) {
    const EventId id = queue.schedule(static_cast<double>(i % 7), [](Seconds) {});
    EXPECT_GT(queue.scheduled_count(), last);
    last = queue.scheduled_count();
    if (i % 3 == 0) {
      queue.cancel(id);  // cancels must never roll the counter back
      EXPECT_EQ(queue.scheduled_count(), last);
    }
    if (i % 5 == 0 && !queue.empty()) {
      queue.pop();  // neither must pops
      EXPECT_EQ(queue.scheduled_count(), last);
    }
  }
  EXPECT_EQ(last, 3000u);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Seconds> times;
  sim.schedule_at(2.5, [&](Seconds t) { times.push_back(t); });
  sim.schedule_at(1.0, [&](Seconds t) { times.push_back(t); });
  sim.run();
  EXPECT_EQ(times, (std::vector<Seconds>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  Seconds fired_at = -1.0;
  sim.schedule_at(5.0, [&](Seconds) {
    sim.schedule_at(1.0, [&](Seconds t) { fired_at = t; });  // past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RescheduleAtClampsToNowAndRetimes) {
  Simulator sim;
  std::vector<std::pair<int, Seconds>> fired;
  const EventId target = sim.schedule_at(10.0, [&](Seconds t) {
    fired.emplace_back(2, t);
  });
  sim.schedule_at(5.0, [&](Seconds t) {
    fired.emplace_back(1, t);
    // Retiming into the past clamps to now() — "immediately after this
    // event", exactly like schedule_at.
    EXPECT_TRUE(sim.reschedule_at(1.0, target));
  });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, 1);
  EXPECT_EQ(fired[1].first, 2);
  EXPECT_DOUBLE_EQ(fired[1].second, 5.0);

  // Dead handles report false through the simulator too.
  EXPECT_FALSE(sim.reschedule_at(1.0, target));
}

// Keyed scheduling's contract, end to end: K timers multiplexing N
// predictions — each timer armed at the earliest (time, seq) key of its
// group, as the engine arms one timer per server — must pop exactly the
// sequence a simulator holding every prediction as its own event pops,
// under random retimes, drops and fires, including equal-time ties and
// retimes into the past that clamp to now.
class KeyedTimerHarness {
 public:
  static constexpr std::size_t kGroups = 7;
  static constexpr std::size_t kPerGroup = 12;
  static constexpr std::size_t kPredictions = kGroups * kPerGroup;

  /// Fired (time, prediction) pairs, in pop order, per side.
  std::vector<std::pair<Seconds, std::size_t>> keyed_fired, direct_fired;
  Simulator keyed, direct;

  /// Retimes (or schedules) prediction \p p to \p time on both sides.
  void retime(std::size_t p, Seconds time) {
    keys_[p] = {std::max(time, keyed.now()), keyed.take_seq()};
    sync(p / kPerGroup);
    if (!direct.reschedule_at(time, events_[p])) {
      events_[p] = direct.schedule_at(time, [this, p](Seconds at) {
        events_[p] = kInvalidEventId;
        direct_fired.emplace_back(at, p);
      });
    }
  }

  void drop(std::size_t p) {
    keys_[p] = kNoEventKey;
    sync(p / kPerGroup);
    direct.cancel(events_[p]);
    events_[p] = kInvalidEventId;
  }

 private:
  std::size_t earliest(std::size_t group) const {
    std::size_t best = kPredictions;
    EventKey best_key = kNoEventKey;
    for (std::size_t p = group * kPerGroup; p < (group + 1) * kPerGroup; ++p) {
      if (keys_[p] < best_key) {
        best_key = keys_[p];
        best = p;
      }
    }
    return best;
  }

  void sync(std::size_t group) {
    const std::size_t p = earliest(group);
    const EventKey want = p == kPredictions ? kNoEventKey : keys_[p];
    if (want == armed_[group]) return;
    armed_[group] = want;
    if (!want.live()) {
      keyed.cancel(timers_[group]);
      timers_[group] = kInvalidEventId;
    } else if (!keyed.rekey(timers_[group], want.time, want.seq)) {
      timers_[group] = keyed.schedule_keyed(
          want.time, want.seq, [this, group](Seconds at) { fire(group, at); });
    }
  }

  void fire(std::size_t group, Seconds at) {
    timers_[group] = kInvalidEventId;
    armed_[group] = kNoEventKey;
    const std::size_t p = earliest(group);
    keys_[p] = kNoEventKey;
    keyed_fired.emplace_back(at, p);
    sync(group);
  }

  std::vector<EventKey> keys_ = std::vector<EventKey>(kPredictions, kNoEventKey);
  std::vector<EventId> events_ = std::vector<EventId>(kPredictions, kInvalidEventId);
  std::vector<EventId> timers_ = std::vector<EventId>(kGroups, kInvalidEventId);
  std::vector<EventKey> armed_ = std::vector<EventKey>(kGroups, kNoEventKey);
};

TEST(Simulator, KeyedTimersPopLikeOneEventPerPrediction) {
  KeyedTimerHarness h;
  std::uint64_t rng = 4242;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::size_t fires = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t roll = next() % 100;
    const std::size_t p = next() % KeyedTimerHarness::kPredictions;
    if (roll < 55) {
      // A whole-second grid makes equal-time ties common; up to 5 s in the
      // past clamps to now.
      h.retime(p, h.direct.now() + static_cast<double>(next() % 20) - 5.0);
    } else if (roll < 70) {
      h.drop(p);
    } else {
      ASSERT_EQ(h.keyed.pending_count() > 0, h.direct.pending_count() > 0);
      if (h.direct.pending_count() == 0) continue;
      ASSERT_EQ(h.keyed.peek_time(), h.direct.peek_time());
      h.keyed.step();
      h.direct.step();
      ++fires;
      ASSERT_EQ(h.keyed_fired, h.direct_fired) << "after op " << op;
    }
  }
  h.keyed.run();
  h.direct.run();
  EXPECT_EQ(h.keyed_fired, h.direct_fired);
  EXPECT_GT(fires, 1000u);
  EXPECT_LE(h.keyed.pending_count(), KeyedTimerHarness::kGroups);
  EXPECT_EQ(h.keyed.now(), h.direct.now());
}

TEST(Simulator, ScheduleInUsesDelay) {
  Simulator sim;
  Seconds fired_at = -1.0;
  sim.schedule_at(2.0, [&](Seconds) {
    sim.schedule_in(3.0, [&](Seconds t) { fired_at = t; });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Seconds) { ++fired; });
  sim.schedule_at(10.0, [&](Seconds) { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWithEmptyQueue) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, ReentrantSchedulingChains) {
  Simulator sim;
  int count = 0;
  // Each event schedules the next until 100 have run.
  std::function<void(Seconds)> chain = [&](Seconds) {
    if (++count < 100) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
  EXPECT_EQ(sim.executed_count(), 100u);
}

TEST(Simulator, HandlerCanCancelPendingEvent) {
  Simulator sim;
  bool victim_fired = false;
  const EventId victim =
      sim.schedule_at(2.0, [&](Seconds) { victim_fired = true; });
  sim.schedule_at(1.0, [&](Seconds) { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [](Seconds) {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EqualTimeEventsRespectCausality) {
  // An event scheduled *at the current time* from within a handler must run
  // after all other handlers already queued at that time (it gets a later
  // sequence number) — this is what makes simultaneous arrival + completion
  // deterministic in the engine.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&](Seconds) {
    order.push_back(1);
    sim.schedule_at(1.0, [&](Seconds) { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&](Seconds) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace vodsim
