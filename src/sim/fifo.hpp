#pragma once
// Sequential-state containers with two-phase (read-committed /
// mutate-next) semantics, for state shared between components within a
// cycle — e.g. an NI channel queue that a shell pushes into while the NI
// drains it. All reads observe the value committed at the previous clock
// edge; all mutations take effect at the next edge, and concurrent
// mutations commute (pops take from the committed front, pushes append),
// so evaluation order never matters.

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/component.hpp"

namespace daelite::sim {

/// A FIFO register: hardware queue with committed reads and deferred
/// pushes/pops, held in one power-of-two ring that doubles only when a
/// push finds it full (a bounded queue stops growing at its capacity).
template <typename T>
class FifoReg : public RegBase {
 public:
  /// Committed occupancy (as of the last clock edge).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Committed element at position i (0 = front).
  const T& at(std::size_t i) const { return ring_[(head_ + i) & mask()]; }

  /// Entries that can still be popped this cycle.
  std::size_t poppable() const { return size_ - pops_; }

  /// Entries pushed this cycle but not yet committed.
  std::size_t pending_pushes() const { return pushes_; }

  /// Occupancy after this cycle's mutations commit.
  std::size_t next_size() const { return size_ - pops_ + pushes_; }

  /// Pop the next committed element (takes effect at the clock edge, but
  /// the value is returned immediately). Requires poppable() > 0.
  T pop() {
    assert(pops_ < size_);
    return ring_[(head_ + pops_++) & mask()];
  }

  /// Append an element at the clock edge.
  void push(T v) {
    if (size_ + pushes_ == ring_.size()) grow();
    ring_[(head_ + size_ + pushes_++) & mask()] = std::move(v);
  }

  /// Immediate reset (outside the tick phase only).
  void clear() { head_ = size_ = pops_ = pushes_ = 0; }

  void commit_reg() override {
    head_ = (head_ + pops_) & mask();
    size_ += pushes_ - pops_;
    pops_ = pushes_ = 0;
  }

 private:
  std::size_t mask() const { return ring_.size() - 1; }

  /// Double the ring, unrolling committed and pushed entries to index 0.
  /// Kept out of line so push() stays small enough to inline.
  [[gnu::noinline]] void grow() {
    std::vector<T> next(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_ + pushes_; ++i)
      next[i] = std::move(ring_[(head_ + i) & mask()]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_; ///< size 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t pops_ = 0;
  std::size_t pushes_ = 0;
};

/// An up/down counter register: reads return the committed value; add/sub
/// accumulate a delta applied at the clock edge. Multiple actors may
/// add/sub in the same cycle without ordering effects.
class CounterReg : public RegBase {
 public:
  std::uint64_t get() const { return value_; }
  bool pending() const { return delta_ != 0; } ///< a delta awaits the clock edge

  void add(std::uint64_t n) { delta_ += static_cast<std::int64_t>(n); }
  void sub(std::uint64_t n) { delta_ -= static_cast<std::int64_t>(n); }

  /// Immediate overwrite (outside the tick phase only).
  void force(std::uint64_t v) {
    value_ = v;
    delta_ = 0;
  }

  void commit_reg() override {
    const auto next = static_cast<std::int64_t>(value_) + delta_;
    assert(next >= 0 && "counter underflow");
    value_ = static_cast<std::uint64_t>(next);
    delta_ = 0;
  }

 private:
  std::uint64_t value_ = 0;
  std::int64_t delta_ = 0;
};

} // namespace daelite::sim
