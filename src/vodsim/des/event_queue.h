#pragma once

/// \file event_queue.h
/// \brief Time-ordered event queue: O(log n) schedule/pop/cancel/retime,
/// zero steady-state heap allocations.
///
/// Handlers live in a generation-tagged slab: an EventId encodes a slot
/// index plus the slot's generation at schedule time, so schedule, cancel
/// and reschedule validation are all array indexing — no hash map, no
/// per-event node allocation. A slot's generation is bumped every time it is
/// freed, which makes stale handles (double cancel, cancel after fire)
/// harmless no-ops.
///
/// Every live slot tracks its heap position (the heap is hand-sifted rather
/// than run through std::push_heap/pop_heap precisely so moves can maintain
/// that index). The index buys two things:
///   - reschedule() retimes an event in place — rewrite the entry's
///     (time, seq) key, one O(log n) sift, no slot churn — which is what
///     keeps timer retiming cheaper than a cancel+insert pair;
///   - cancel() removes its entry eagerly (move the last entry into the
///     hole, sift). The heap therefore only ever holds live entries: pop
///     never skips dead ones, no compaction pass is needed, memory is
///     proportional to pending events, and position maintenance during
///     sifts is a single unconditional store.
///
/// Ordering is deterministic: equal-time events fire in schedule order
/// (stable tie-break on a monotonically increasing sequence number), which
/// keeps whole simulations reproducible from a seed.

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "vodsim/des/event_callback.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Opaque handle to a scheduled event; 0 is never a valid id.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// A pending event's place in the queue's total order: fire time, then the
/// sequence number it took (the equal-time tie-break). Callers of the keyed
/// API (EventQueue::take_seq) hold these themselves; kNoEventKey, the
/// "nothing pending" key, sorts after every live one.
struct EventKey {
  Seconds time;
  std::uint64_t seq;  ///< seqs start at 1 and never reach the max, "none"

  bool live() const { return seq != std::numeric_limits<std::uint64_t>::max(); }
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey&, const EventKey&) = default;
};

inline constexpr EventKey kNoEventKey{std::numeric_limits<Seconds>::infinity(),
                                      std::numeric_limits<std::uint64_t>::max()};

/// Callback invoked when an event fires. Receives the firing time.
using EventFn = EventCallback;

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules \p fn at absolute time \p time. Returns a handle usable with
  /// cancel(). Times may be scheduled in any order, including in the past
  /// relative to other pending events (the caller — Simulator — enforces
  /// causality with respect to the clock).
  EventId schedule(Seconds time, EventFn fn) {
    return schedule_keyed(time, ++scheduled_, std::move(fn));
  }

  /// Retimes a pending event in place: one O(log n) sift, no slot churn.
  /// The handle stays valid and the handler is untouched.
  ///
  /// Consumes one sequence number, so the retimed event ties with
  /// equal-time events exactly as if it had been cancelled and freshly
  /// scheduled — pop order is uniquely (time, seq)-determined, which is what
  /// the determinism contract pins; the heap's internal layout is free to
  /// differ. Returns false (and does nothing, consuming no seq) for dead or
  /// stale ids; the caller schedules a fresh event instead.
  bool reschedule(EventId id, Seconds time) {
    Slot* entry = live_slot(id);
    if (entry == nullptr) return false;
    retime(*entry, time, ++scheduled_);
    return true;
  }

  // --- keyed scheduling ---------------------------------------------------
  // A caller that multiplexes many logical events onto one queue entry (the
  // engine's per-server predicted-event timer, DESIGN.md §8) takes each
  // logical event's seq with take_seq() at the moment schedule() or
  // reschedule() would have consumed it, keeps the (time, seq) keys itself,
  // and arms one entry at the earliest of them with schedule_keyed() /
  // rekey(). Neither consumes a seq, so the keys — and the pop order — are
  // exactly those of scheduling every logical event directly.

  /// Consumes one sequence number and schedules nothing.
  std::uint64_t take_seq() { return ++scheduled_; }

  /// schedule() under a caller-held key: \p seq must come from take_seq()
  /// and be held by no other pending entry. Consumes no seq.
  EventId schedule_keyed(Seconds time, std::uint64_t seq, EventFn fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& entry = slots_[slot];
    assert(!entry.live);
    entry.fn = std::move(fn);
    entry.live = true;
    heap_.push_back(HeapEntry{time, seq, slot, entry.generation});
    sift_up(heap_.size() - 1);
    return make_id(slot, entry.generation);
  }

  /// reschedule() under a caller-held key (see schedule_keyed). Consumes no
  /// seq; returns false (and does nothing) for dead or stale ids.
  bool rekey(EventId id, Seconds time, std::uint64_t seq) {
    Slot* entry = live_slot(id);
    if (entry == nullptr) return false;
    retime(*entry, time, seq);
    return true;
  }

  /// Cancels a pending event in O(log n), removing its heap entry in place;
  /// no-op if the event already fired or was cancelled (including
  /// kInvalidEventId and stale ids — the slot generation no longer matches).
  void cancel(EventId id) {
    const Slot* entry = live_slot(id);
    if (entry == nullptr) return;
    remove_at(entry->heap_pos);
    release(id_slot(id));
  }

  /// True if no pending events remain.
  bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  Seconds peek_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Removes and returns the earliest pending event (handler + time).
  /// Requires !empty().
  std::pair<Seconds, EventFn> pop() {
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    remove_at(0);
    Slot& entry = slots_[top.slot];
    assert(entry.live && entry.generation == top.generation);
    EventFn fn = std::move(entry.fn);
    release(top.slot);
    return {top.time, std::move(fn)};
  }

  /// Pre-sizes the slab and heap for \p events concurrently pending events,
  /// so the warmup phase does not grow them incrementally.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Sequence numbers consumed so far — one per schedule(), reschedule()
  /// and take_seq() (diagnostic).
  std::uint64_t scheduled_count() const { return scheduled_; }

  /// Heap entries currently held (diagnostic). Eager removal keeps this
  /// identical to size(); tests pin that no dead ballast accumulates.
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct HeapEntry {
    Seconds time;
    std::uint64_t seq;  ///< global schedule order: the equal-time tie-break
    std::uint32_t slot;
    std::uint32_t generation;  ///< redundant with slot (asserts only)
  };

  /// Min-heap comparator: true when \p a fires after \p b.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = 0;  ///< current heap index; valid while live
    bool live = false;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }
  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t id_generation(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// The live slot \p id names, or nullptr for kInvalidEventId, fired,
  /// cancelled and stale ids (the slot generation no longer matches).
  Slot* live_slot(EventId id) {
    if (id == kInvalidEventId) return nullptr;
    const std::uint32_t slot = id_slot(id);
    if (slot >= slots_.size()) return nullptr;
    Slot& entry = slots_[slot];
    if (!entry.live || entry.generation != id_generation(id)) return nullptr;
    return &entry;
  }

  /// Rewrites a live entry's (time, seq) key and sifts it into place. An
  /// earlier key moves up; a later one — or the same time, now losing the
  /// seq tie-break — moves down. Try up first; if it did not move, settle
  /// downward.
  void retime(const Slot& entry, Seconds time, std::uint64_t seq) {
    const std::size_t pos = entry.heap_pos;
    assert(pos < heap_.size() && &slots_[heap_[pos].slot] == &entry &&
           heap_[pos].generation == entry.generation);
    heap_[pos].time = time;
    heap_[pos].seq = seq;
    if (sift_up(pos) == pos) sift_down(pos);
  }

  /// Frees a slot: destroys the handler, bumps the generation (invalidating
  /// outstanding ids), and recycles the index.
  void release(std::uint32_t slot) {
    Slot& entry = slots_[slot];
    entry.fn.reset();
    entry.live = false;
    ++entry.generation;
    free_slots_.push_back(slot);
  }

  /// Writes \p pos into the owning slot's position index. Unconditional:
  /// eager removal guarantees every heap entry is live and owns its slot.
  void set_pos(const HeapEntry& entry, std::size_t pos) {
    assert(slots_[entry.slot].live &&
           slots_[entry.slot].generation == entry.generation);
    slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  /// Moves heap_[i] toward the root while it fires before its parent,
  /// maintaining position indices. Returns the final index.
  std::size_t sift_up(std::size_t i) {
    HeapEntry entry = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Later{}(heap_[parent], entry)) break;
      heap_[i] = heap_[parent];
      set_pos(heap_[i], i);
      i = parent;
    }
    heap_[i] = std::move(entry);
    set_pos(heap_[i], i);
    return i;
  }

  /// Moves heap_[i] toward the leaves while a child fires before it,
  /// maintaining position indices.
  void sift_down(std::size_t i) {
    HeapEntry entry = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
      if (!Later{}(entry, heap_[child])) break;
      heap_[i] = heap_[child];
      set_pos(heap_[i], i);
      i = child;
    }
    heap_[i] = std::move(entry);
    set_pos(heap_[i], i);
  }

  /// Removes the entry at \p pos: the last entry fills the hole and sifts
  /// to its place (either direction — the hole's parent/children bear no
  /// relation to the tail entry's key).
  void remove_at(std::size_t pos) {
    assert(pos < heap_.size());
    const std::size_t last = heap_.size() - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      heap_.pop_back();
      if (sift_up(pos) == pos) sift_down(pos);
    } else {
      heap_.pop_back();
    }
  }

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t scheduled_ = 0;
};

}  // namespace vodsim
