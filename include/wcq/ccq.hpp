// CCQ — the CAS2-based circular queue (Nikolaev, DISC 2019, §1;
// wCQ's Figure 11 family plots). Exactly SCQ's state machine —
// threshold, safe bit, catchup, Cache_Remap — but the entry is a
// {meta, idx} SplitEntry pair mutated by double-width CAS: the index
// is a full 64-bit word instead of being packed beside the cycle.
// CCQ is what you build when indices don't fit the cycle word; SCQ's
// contribution is showing the packing makes CAS2 unnecessary. Keeping
// both in the lineup prices that difference: same protocol, twice the
// entry footprint, and every mutation pays cmpxchg16b.
//
// Composition: Geometry/Remap from ring_math.hpp (positions and
// cycles are identical to SCQ's), ScqThreshold from ring_policy.hpp,
// SplitEntry + pair_cas from ring_entry.hpp. meta packs
// [cycle | is_safe (bit 0)]; idx all-ones is BOT. The two words are
// read as separate 64-bit atomics; a torn {meta, idx} snapshot is
// benign — every mutation goes through a CAS2 expecting the full pair
// (phantom snapshots fail it), and the no-CAS decisions either depend
// on meta alone or name a pair some real intermediate state exhibited
// within the read window.
#pragma once

#include <atomic>
#include <cstdint>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/ring_policy.hpp"
#include "wcq/scq.hpp"

namespace wcq {

class CcqRing {
 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,      // definitive: threshold spent or tail caught up
    kContended = 2,  // patience exhausted
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // `full` starts the ring holding indices 0..capacity-1 in order,
  // written as the state `capacity` enqueue_idx calls into the empty
  // ring leave: index i at position ring_size + i (entry map(i), cycle
  // 1, safe), Tail capacity past Head, threshold armed.
  CcqRing(unsigned order, bool remap, bool full)
      : geo_(order),
        remap_(remap ? ring::Remap::cache(geo_, kLineBits)
                     : ring::Remap::identity(geo_)),
        threshold_(geo_) {
    entries_ = static_cast<ring::SplitEntry*>(
        mem::alloc(geo_.ring_size() * sizeof(ring::SplitEntry)));
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      const std::uint64_t i = remap_.unmap(j);
      const bool held = full && i < geo_.capacity();
      entries_[j].meta.store(pack_meta(held ? 1 : 0, true),
                             std::memory_order_relaxed);
      entries_[j].idx.store(held ? i : kBotIdx, std::memory_order_relaxed);
    }
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size() + (full ? geo_.capacity() : 0),
                std::memory_order_relaxed);
    if (full) threshold_.arm();
  }

  ~CcqRing() {
    mem::free(entries_, geo_.ring_size() * sizeof(ring::SplitEntry));
  }

  CcqRing(const CcqRing&) = delete;
  CcqRing& operator=(const CcqRing&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  [[gnu::always_inline]] Result enqueue_idx(std::uint64_t eidx,
                                            std::uint64_t max_iters) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t tcycle = geo_.cycle_of_pos(t);
      const std::uint64_t j = remap_.map(t);
      for (;;) {
        const std::uint64_t m =
            entries_[j].meta.load(std::memory_order_acquire);
        const std::uint64_t i =
            entries_[j].idx.load(std::memory_order_acquire);
        if (meta_cycle(m) < tcycle && i == kBotIdx &&
            (meta_safe(m) ||
             head_.load(std::memory_order_seq_cst) <= t)) {
          if (!ring::pair_cas(&entries_[j], {m, i},
                              {pack_meta(tcycle, true), eidx})) {
            continue;  // entry (or our snapshot) moved; re-evaluate
          }
          threshold_.arm();
          return kOk;
        }
        break;  // position unusable, take the next one
      }
    }
    return kContended;
  }

  [[gnu::always_inline]] Result dequeue_idx(std::uint64_t* out,
                                            std::uint64_t max_iters) {
    if (threshold_.spent()) return kEmpty;
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = remap_.map(h);
      bool advanced = false;
      for (;;) {
        const std::uint64_t m =
            entries_[j].meta.load(std::memory_order_acquire);
        const std::uint64_t i =
            entries_[j].idx.load(std::memory_order_acquire);
        const std::uint64_t ecycle = meta_cycle(m);
        if (ecycle == hcycle && i != kBotIdx) {
          // Consume: index back to BOT, meta (cycle + safe) untouched.
          if (!ring::pair_cas(&entries_[j], {m, i}, {m, kBotIdx})) continue;
          *out = i;
          return kOk;
        }
        if (ecycle < hcycle) {
          // Advance an empty entry's cycle, or mark a lagging value
          // unsafe so a slow enqueuer cannot resurrect it.
          const detail::Pair fresh =
              i == kBotIdx
                  ? detail::Pair{pack_meta(hcycle, meta_safe(m)), kBotIdx}
                  : detail::Pair{pack_meta(ecycle, false), i};
          if (!ring::pair_cas(&entries_[j], {m, i}, fresh)) continue;
        }
        advanced = true;
        break;
      }
      if (advanced) {
        const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
        if (t <= h + 1) {
          catchup(t, h + 1);
          threshold_.spend();
          return kEmpty;
        }
        if (threshold_.spend()) return kEmpty;
      }
    }
    return kContended;
  }

 private:
  static constexpr std::uint64_t kBotIdx = ~std::uint64_t{0};

  static constexpr unsigned kLineBits =
      detail::log2_pow2(detail::kCacheLine / sizeof(ring::SplitEntry));

  static constexpr std::uint64_t pack_meta(std::uint64_t cycle, bool safe) {
    return (cycle << 1) | static_cast<std::uint64_t>(safe);
  }
  static constexpr std::uint64_t meta_cycle(std::uint64_t m) { return m >> 1; }
  static constexpr bool meta_safe(std::uint64_t m) { return (m & 1u) != 0; }

  void catchup(std::uint64_t t, std::uint64_t h) {
    while (!tail_.compare_exchange_weak(t, h, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
      h = head_.load(std::memory_order_seq_cst);
      t = tail_.load(std::memory_order_seq_cst);
      if (t >= h) break;
    }
  }

  const ring::Geometry geo_;
  const ring::Remap remap_;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::ScqThreshold threshold_;
  alignas(detail::kNoFalseSharing) ring::SplitEntry* entries_ = nullptr;
};

// CCQ as a bounded MPMC queue of 64-bit values: scq.hpp's two-ring
// construction over CAS2 rings. Positions and cycles follow SCQ's
// Geometry, so the order ceiling is the same.
class CcqQueue : public TwoRingQueue<CcqRing> {
 public:
  explicit CcqQueue(const options& opt) : TwoRingQueue(opt, "ccq") {}
};

}  // namespace wcq
