// Empty-detection policy — the layer that separates SCQ-family rings
// from the naive circular queue.
//
// SCQ's contribution (DISC 2019, §2) is ScqThreshold: dequeuers spend
// a shared budget of 3n−1 failed positions; once it is gone, "empty"
// is definitive in O(1) and nobody scans a dead ring. NCQ (ncq.hpp)
// predates the idea and has no threshold: its only exit is comparing
// Head against Tail, which a storm of CAS-retrying peers can starve —
// the livelock the paper's strawman exists to demonstrate.
//
// The spent budget is not the only cheap exit. The threshold is
// *armed* (at 3n−1) from an enqueue until the next fruitless ticket;
// below armed, a ring is likely empty, and ScqRingT::dequeue_idx then
// answers empty from Tail <= Head without a ticket, as NCQ does. That
// exit is one read before the ticket loop, not a loop of its own: a pop
// that finds Tail > Head takes tickets under the budget as before.
#pragma once

#include <atomic>
#include <cstdint>

#include "wcq/ring_math.hpp"

namespace wcq::ring {

/// The SCQ threshold: armed to ring_size + n − 1 (= 3n−1) by every
/// successful enqueue, spent by every dequeue ticket that yields no
/// value. Spent-below-zero is a definitive "queue empty" certificate:
/// at most 3n−1 fruitless positions can exist while a value is live.
class ScqThreshold {
 public:
  explicit ScqThreshold(const Geometry& g)
      : init_(static_cast<std::int64_t>(g.ring_size() + g.capacity() - 1)) {}

  /// One read of the budget, for callers that take both of the
  /// decisions below from it.
  [[gnu::always_inline]] std::int64_t level() const {
    return v_.load(std::memory_order_seq_cst);
  }

  /// Definitive-empty check: the budget ran out.
  [[gnu::always_inline]] static bool spent(std::int64_t level) {
    return level < 0;
  }
  [[gnu::always_inline]] bool spent() const { return spent(level()); }

  /// Whether no ticket has come up fruitless since the last arm().
  [[gnu::always_inline]] bool armed(std::int64_t level) const {
    return level == init_;
  }

  /// Re-arm after a successful enqueue (a value is live again). The
  /// load-then-store shape keeps the hot path read-only when the
  /// threshold is already armed.
  [[gnu::always_inline]] void arm() {
    if (v_.load(std::memory_order_seq_cst) != init_) {
      v_.store(init_, std::memory_order_seq_cst);
    }
  }

  /// Account one fruitless dequeue position; true when the budget is
  /// now gone (caller returns definitive empty).
  [[gnu::always_inline]] bool spend() {
    return v_.fetch_sub(1, std::memory_order_seq_cst) <= 0;
  }

 private:
  const std::int64_t init_;
  // Starts spent: a fresh ring is empty until the first enqueue arms it.
  std::atomic<std::int64_t> v_{-1};
};

}  // namespace wcq::ring
