// Timer core of the simulator: one binary min-heap of events with stable
// FIFO ordering at equal timestamps.
//
// Entries are 24-byte PODs; callbacks live in a slot slab indexed by the
// entry, stored as SmallFn (48-byte inline buffer), so scheduling an event
// performs no heap allocation in the steady state. Cancellation is lazy:
// an EventHandle bumps the slot generation (freeing the callback
// immediately) and the stale POD entry is skipped on pop. When tombstones
// exceed half of all queued entries the heap is compacted in one O(n)
// sweep, so a workload that schedules-and-cancels (RPC timeout timers,
// retired sessions) cannot grow the queue without bound.
//
// Pop order is exactly (timestamp, schedule seq), so run digests depend
// only on the schedule, never on the queue's layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/small_fn.hpp"

namespace mams::sim {

using EventFn = SmallFn;

namespace detail {

/// Callback slots shared between the queue and its handles: the slab is
/// the only heap object they share. Handles hold a weak reference so
/// cancelling after the simulator is gone stays a safe no-op. A slot is
/// addressed by (index, generation); a generation mismatch means the
/// event already fired or was cancelled.
struct EventSlab {
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free;
  std::uint64_t tombstones = 0;  ///< cancelled entries still queued as PODs
};

}  // namespace detail

/// Opaque handle used to cancel a scheduled event. Default-constructed
/// handles are inert. Copyable; all copies refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired; safe to call repeatedly and
  /// after the event fired (no-op then). The callback is destroyed
  /// immediately; only the small POD entry lingers until pop/compaction.
  void Cancel() noexcept {
    auto slab = slab_.lock();
    if (!slab) return;
    auto& slot = slab->slots[slot_];
    if (slot.gen != gen_) return;  // already fired or cancelled
    slot.fn.Reset();               // release the closure right away
    ++slot.gen;
    slab->free.push_back(slot_);
    ++slab->tombstones;
  }

  bool pending() const noexcept {
    auto slab = slab_.lock();
    return slab && slab->slots[slot_].gen == gen_;
  }

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<detail::EventSlab> slab, std::uint32_t slot,
              std::uint32_t gen)
      : slab_(std::move(slab)), slot_(slot), gen_(gen) {}
  std::weak_ptr<detail::EventSlab> slab_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  struct PoppedEvent {
    SimTime at = 0;
    EventFn fn;
  };

  EventQueue() : slab_(std::make_shared<detail::EventSlab>()) {}

  /// Schedules `fn` at absolute virtual time `at`. Events at the same time
  /// fire in scheduling order.
  EventHandle Schedule(SimTime at, EventFn fn) {
    if (at < 0) at = 0;
    MaybeCompact();
    const std::uint32_t slot = AcquireSlot(std::move(fn));
    const Entry e{at, next_seq_++, slot, slab_->slots[slot].gen};
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), LaterFirst{});
    return EventHandle{slab_, slot, e.gen};
  }

  /// True when no live (non-cancelled) event remains.
  bool empty() const noexcept { return live() == 0; }

  /// Number of live (non-cancelled, unfired) events.
  std::uint64_t live() const noexcept {
    return heap_.size() - slab_->tombstones;
  }

  /// Time of the earliest pending event; must not be called when empty().
  SimTime NextTime() {
    EnsureFront();
    return heap_.front().at;
  }

  /// Removes and returns the earliest pending event. Caller advances the
  /// clock to `at` and then invokes `fn`.
  PoppedEvent Pop() {
    EnsureFront();
    const Entry e = PopFront();
    auto& slot = slab_->slots[e.slot];
    PoppedEvent out{e.at, std::move(slot.fn)};
    ++slot.gen;  // a handle held on this event now reads "not pending"
    slab_->free.push_back(e.slot);
    return out;
  }

  // --- introspection (tests, debug tools) -------------------------------
  /// Entries physically queued, including not-yet-collected tombstones.
  std::uint64_t entries() const noexcept { return heap_.size(); }
  std::uint64_t tombstones() const noexcept { return slab_->tombstones; }
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  // 24-byte POD; the callback lives in the slab at `slot` while `gen`
  // matches the slot's generation (mismatch = tombstone).
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Orders later events first: the comparator making std::*_heap a
  /// min-heap on (at, seq).
  struct LaterFirst {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool Alive(const Entry& e) const noexcept {
    return slab_->slots[e.slot].gen == e.gen;
  }

  std::uint32_t AcquireSlot(EventFn fn) {
    auto& s = *slab_;
    if (!s.free.empty()) {
      const std::uint32_t idx = s.free.back();
      s.free.pop_back();
      s.slots[idx].fn = std::move(fn);
      return idx;
    }
    s.slots.push_back({std::move(fn), 0});
    return static_cast<std::uint32_t>(s.slots.size() - 1);
  }

  Entry PopFront() {
    std::pop_heap(heap_.begin(), heap_.end(), LaterFirst{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Makes heap_.front() the earliest live entry. Requires !empty().
  void EnsureFront() {
    while (!Alive(heap_.front())) {
      PopFront();
      --slab_->tombstones;
    }
  }

  /// Sweeps cancelled entries out of the heap once tombstones exceed half
  /// of it, so a far-future timer that was cancelled does not stay queued
  /// until its deadline.
  void MaybeCompact() {
    if (slab_->tombstones < 64 || slab_->tombstones * 2 <= heap_.size()) {
      return;
    }
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry& e) { return !Alive(e); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), LaterFirst{});
    slab_->tombstones = 0;
    ++compactions_;
  }

  std::shared_ptr<detail::EventSlab> slab_;
  std::vector<Entry> heap_;  // min-heap on (at, seq), tombstones included
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace mams::sim
