// A slab of values addressed by a 32-bit slot index, with a free list.
// The simulator's event callbacks and the simulated network's in-flight
// messages live in one each: acquiring a slot reuses a freed one when
// there is one, so after warm-up a schedule or a send allocates nothing,
// and the slab only grows to the peak number of live values.
#pragma once

#include <cstdint>
#include <vector>

namespace repro {

template <typename T>
class SlotPool {
 public:
  /// A slot to fill: the most recently released one, else a new
  /// default-constructed value. A reused slot holds whatever its last
  /// occupant left there. May grow the slab, which invalidates
  /// references into it.
  std::uint32_t acquire() {
    if (free_.empty()) {
      values_.emplace_back();
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Hand `slot` back for reuse. The caller has already emptied it.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) { return values_[slot]; }
  const T& operator[](std::uint32_t slot) const { return values_[slot]; }

  /// Slots ever created, live and free.
  std::size_t size() const { return values_.size(); }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace repro
