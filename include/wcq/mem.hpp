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
// live and peak are one global history, so peak_bytes is exact: they
// share a line of their own (left to the linker, separate globals may
// straddle two lines, and every allocation from every thread then
// contends on both).
struct alignas(wcq::detail::kNoFalseSharing) Counters {
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
};
inline Counters counters;

// allocs and total are only ever summed, so each thread bumps a stripe
// of its own instead of the shared line. Threads past kStripes share
// stripes round-robin; fetch_add keeps the sums exact either way.
struct alignas(wcq::detail::kNoFalseSharing) Stripe {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> total{0};
};
inline constexpr unsigned kStripes = 16;
inline Stripe stripes[kStripes];

inline Stripe& my_stripe() {
  static std::atomic<unsigned> next{0};
  thread_local Stripe& s =
      stripes[next.fetch_add(1, std::memory_order_relaxed) % kStripes];
  return s;
}

inline void on_alloc(std::size_t bytes) {
  Stripe& s = my_stripe();
  s.allocs.fetch_add(1, std::memory_order_relaxed);
  s.total.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t now =
      counters.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t p = counters.peak.load(std::memory_order_relaxed);
  while (p < now && !counters.peak.compare_exchange_weak(
                        p, now, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Aligned, counted allocation. Pair with mem::free (sized). Counted
// once the allocation succeeded, so a throwing request leaves the
// counters as they were.
inline void* alloc(std::size_t bytes,
                   std::size_t align = wcq::detail::kNoFalseSharing) {
  void* p = ::operator new(bytes, std::align_val_t{align});
  detail::on_alloc(bytes);
  return p;
}

inline void free(void* p, std::size_t bytes,
                 std::size_t align = wcq::detail::kNoFalseSharing) {
  if (p == nullptr) return;
  ::operator delete(p, bytes, std::align_val_t{align});
  detail::counters.live.fetch_sub(bytes, std::memory_order_relaxed);
}

// Zero all counters (call between benchmark runs, with no queues live).
inline void reset() {
  detail::counters.live.store(0, std::memory_order_relaxed);
  detail::counters.peak.store(0, std::memory_order_relaxed);
  for (detail::Stripe& s : detail::stripes) {
    s.allocs.store(0, std::memory_order_relaxed);
    s.total.store(0, std::memory_order_relaxed);
  }
}

// Racing live allocations, total_allocs and total_bytes may lag them;
// once the allocating threads are joined they are exact.
inline Stats stats() {
  Stats s;
  s.live_bytes = detail::counters.live.load(std::memory_order_relaxed);
  s.peak_bytes = detail::counters.peak.load(std::memory_order_relaxed);
  for (const detail::Stripe& st : detail::stripes) {
    s.total_allocs += st.allocs.load(std::memory_order_relaxed);
    s.total_bytes += st.total.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace wcq::mem
