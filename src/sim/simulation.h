// Deterministic discrete-event simulation core.
//
// Every run of an experiment is a pure function of (config, seed): the
// event queue orders by (virtual time, insertion sequence), so ties are
// resolved deterministically, and nothing in the stack reads wall-clock
// time. Replicas, timers and the network all schedule through this one
// queue.
//
// Storage: a pending callback lives in a slab slot, and the heap orders
// small (time, seq, slot) entries. An EventId packs the slot with the
// slot's generation, which advances every time the slot is freed, so a
// stale id (its event fired or was cancelled, the slot since reused)
// cannot cancel the new occupant. Cancelling destroys the callback at
// once; its heap entry stays until it reaches the top and is skipped.
// Slot indices and generations never influence firing order — only
// (time, seq) does — so reusing slots keeps runs bit-for-bit repeatable.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/assert.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "sim/executor.h"

namespace repro::sim {

class Simulation final : public IExecutor {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const override { return now_; }

  /// Schedule a callback at absolute virtual time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb) override;

  /// Cancel a pending event. Cancelling an already-fired, already-
  /// cancelled or unknown id is a no-op (timers race with their own
  /// firing in protocol code).
  void cancel(EventId id) override;

  /// Run the next pending event. Returns false if the queue is empty.
  bool step();

  /// Run all events with time <= deadline; afterwards now() == deadline
  /// (even if the queue drained early). Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Run until the queue drains or `max_events` executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Virtual time of the next live event, or kSimTimeNever when none is
  /// pending. Retires cancelled entries at the head of the heap on the
  /// way, so a cancelled event's time is never reported.
  SimTime next_time();

  bool idle() const { return pending() == 0; }
  std::size_t pending() const { return queue_.size() - cancelled_; }
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;

    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Slot {
    Callback cb;
    /// Bumped when the slot is freed; the high half of its EventIds.
    std::uint32_t gen = 1;
    /// Cancelled while its heap entry is still queued.
    bool cancelled = false;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Pop cancelled entries off the top of the heap, freeing their slots.
  /// Afterwards the heap is empty or its top is a live event.
  void drop_cancelled_heads();
  void free_slot(std::uint32_t slot);
  bool fire_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  /// Heap entries whose slot was cancelled (pending() excludes them).
  std::size_t cancelled_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  SlotPool<Slot> slots_;
};

}  // namespace repro::sim
