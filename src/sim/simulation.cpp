#include "sim/simulation.h"

namespace repro::sim {

EventId Simulation::schedule_at(SimTime t, Callback cb) {
  REPRO_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  const std::uint32_t slot = slots_.acquire();
  slots_[slot].cb = std::move(cb);
  queue_.push(Entry{t, next_seq_++, slot});
  return make_id(slot, slots_[slot].gen);
}

void Simulation::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // A freed slot's generation has moved on, so a stale id never matches.
  if (s.gen != static_cast<std::uint32_t>(id >> 32) || s.cancelled) return;
  s.cancelled = true;
  s.cb = nullptr;
  ++cancelled_;
}

void Simulation::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cancelled = false;
  // Generation 0 is never handed out, so kInvalidEvent (0) never matches.
  if (++s.gen == 0) s.gen = 1;
  slots_.release(slot);
}

void Simulation::drop_cancelled_heads() {
  while (!queue_.empty() && slots_[queue_.top().slot].cancelled) {
    free_slot(queue_.top().slot);
    queue_.pop();
    --cancelled_;
  }
}

bool Simulation::fire_next() {
  drop_cancelled_heads();
  if (queue_.empty()) return false;
  const Entry e = queue_.top();
  queue_.pop();
  // Free the slot before running: the callback may schedule (and so
  // reuse it), and cancelling its own, already-fired id is a no-op.
  Callback cb = std::move(slots_[e.slot].cb);
  free_slot(e.slot);
  now_ = e.time;
  ++executed_;
  cb();
  return true;
}

bool Simulation::step() { return fire_next(); }

SimTime Simulation::next_time() {
  drop_cancelled_heads();
  return queue_.empty() ? kSimTimeNever : queue_.top().time;
}

std::size_t Simulation::run_until(SimTime deadline) {
  std::size_t count = 0;
  for (;;) {
    // Skip over cancelled heads without advancing time.
    drop_cancelled_heads();
    if (queue_.empty() || queue_.top().time > deadline) break;
    if (fire_next()) ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && fire_next()) ++count;
  return count;
}

}  // namespace repro::sim
