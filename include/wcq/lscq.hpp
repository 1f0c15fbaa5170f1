// LSCQ — the unbounded queue of the SCQ paper (Nikolaev, DISC 2019,
// §5) and the strongest lock-free contender in wCQ's Figures 10-12: a
// Michael-Scott list (ring_list.hpp) whose nodes are whole SCQ
// segments (two-ring bounded queues). Values live in per-segment data
// arrays, so — unlike LCRQ/FAA — no value bit pattern is reserved:
// every uint64_t is storable.
//
// A segment refuses a push when its free-index ring is exhausted or
// its value ring is closed. Once a successor is linked, the segment's
// last pop finalizes it:
//
//   1. fq.close() — Tail's bit 63 — makes every new enqueue ticket
//      abort with kClosed before touching an entry.
//   2. fq.drain_idx() burns head tickets past every position a
//      pre-close ticket could still install at (SCQ's threshold-spent
//      kEmpty does NOT imply head >= tail, so an in-flight pre-close
//      enqueue could otherwise install into a retired segment and the
//      value would vanish). A drained value is simply this dequeue's
//      result; kEmpty from drain is a sterility certificate.
//   3. Only a sterile segment is unlinked and retired.
//
// A pusher whose fq enqueue hits kClosed abandons its free index in
// the dying segment (the value was never visible, the index dies with
// the segment's allocation) and retries on the current list tail.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/ring_list.hpp"
#include "wcq/scq_ring.hpp"

namespace wcq {

// One list node: a bounded two-ring SCQ whose value ring (fq) is
// finalizable. The data array lives in trailing storage.
class ScqSegment {
 public:
  static constexpr const char* kName = "lscq";
  // Every append allocates a whole segment, so segments are capped at
  // 2^20 values.
  static constexpr unsigned kMaxOrder = 20;

  static ScqSegment* make(unsigned order) {
    const std::uint64_t n = std::uint64_t{1} << order;
    ScqSegment* s = new (mem::alloc(bytes(n))) ScqSegment(order);
    std::atomic<std::uint64_t>* data = s->data();
    for (std::uint64_t i = 0; i < n; ++i) {
      new (&data[i]) std::atomic<std::uint64_t>(0);
    }
    return s;
  }

  static void destroy(ScqSegment* s) {
    const std::size_t size = bytes(s->aq_.capacity());
    s->~ScqSegment();
    mem::free(s, size);
  }

  static constexpr bool refuses(std::uint64_t) { return false; }

  // False iff the segment can take no more values: free-index ring
  // exhausted (full) or value ring closed.
  [[gnu::always_inline]] bool push(std::uint64_t v) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, ScqRing::kUnbounded) == ScqRing::kEmpty) {
      return false;  // no free slots: full
    }
    // The store runs inside fq's enqueue, after its first Tail ticket
    // (scq.hpp), so a closed fq may skip it.
    if (fq_.enqueue_idx(idx, FinalScqRing::kUnbounded,
                        detail::StoreValue{data()[idx], v}) ==
        FinalScqRing::kClosed) {
      // The value was never visible; the index dies with the segment.
      return false;
    }
    return true;
  }

  [[gnu::always_inline]] bool pop(std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, FinalScqRing::kUnbounded) ==
        FinalScqRing::kEmpty) {
      return false;
    }
    aq_.enqueue_idx(idx, ScqRing::kUnbounded,
                    detail::LoadValue{data()[idx], v});
    return true;
  }

  // Close, then sweep the surviving pre-close tickets. A swept value
  // is the result; false is the sterility certificate.
  bool last_pop(std::uint64_t* v) {
    fq_.close();
    std::uint64_t idx = 0;
    if (fq_.drain_idx(&idx) != FinalScqRing::kOk) return false;
    *v = data()[idx].load(std::memory_order_relaxed);
    return true;
  }

  alignas(detail::kNoFalseSharing) std::atomic<ScqSegment*> next{nullptr};

 private:
  explicit ScqSegment(unsigned order)
      : aq_(order, /*full=*/true), fq_(order, /*full=*/false) {}

  static std::size_t bytes(std::uint64_t n) {
    return sizeof(ScqSegment) + n * sizeof(std::atomic<std::uint64_t>);
  }

  std::atomic<std::uint64_t>* data() {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
  }

  ScqRing aq_;       // free slots (starts full)
  FinalScqRing fq_;  // filled slots (starts empty, closable)
};

using LscqQueue = RingList<ScqSegment>;

}  // namespace wcq
