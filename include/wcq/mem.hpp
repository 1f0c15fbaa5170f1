// Counting allocator every queue routes its dynamic allocations
// through, so the Figure 10 memory bench can report peak live bytes
// actually requested by the algorithm (not the allocator's slack).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "wcq/detail.hpp"

namespace wcq::mem {

struct Stats {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_bytes = 0;
};

namespace detail {
// Every counted alloc and free touches these, so they get a line of
// their own: left to the linker, four separate globals may straddle
// two cache lines, and every allocation from every thread then
// contends on both.
struct alignas(wcq::detail::kNoFalseSharing) Counters {
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> total{0};
};
inline Counters counters;

inline void on_alloc(std::size_t bytes) {
  counters.allocs.fetch_add(1, std::memory_order_relaxed);
  counters.total.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t now =
      counters.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t p = counters.peak.load(std::memory_order_relaxed);
  while (p < now && !counters.peak.compare_exchange_weak(
                        p, now, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Aligned, counted allocation. Pair with mem::free (sized).
inline void* alloc(std::size_t bytes,
                   std::size_t align = wcq::detail::kNoFalseSharing) {
  detail::on_alloc(bytes);
  return ::operator new(bytes, std::align_val_t{align});
}

inline void free(void* p, std::size_t bytes,
                 std::size_t align = wcq::detail::kNoFalseSharing) {
  if (p == nullptr) return;
  detail::counters.live.fetch_sub(bytes, std::memory_order_relaxed);
  ::operator delete(p, bytes, std::align_val_t{align});
}

// Zero all counters (call between benchmark runs, with no queues live).
inline void reset() {
  detail::counters.live.store(0, std::memory_order_relaxed);
  detail::counters.peak.store(0, std::memory_order_relaxed);
  detail::counters.allocs.store(0, std::memory_order_relaxed);
  detail::counters.total.store(0, std::memory_order_relaxed);
}

inline Stats stats() {
  const detail::Counters& c = detail::counters;
  Stats s;
  s.live_bytes = c.live.load(std::memory_order_relaxed);
  s.peak_bytes = c.peak.load(std::memory_order_relaxed);
  s.total_allocs = c.allocs.load(std::memory_order_relaxed);
  s.total_bytes = c.total.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wcq::mem
