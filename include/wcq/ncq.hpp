// NCQ — the naive circular queue, the SCQ paper's strawman (Nikolaev,
// DISC 2019, Alg. 1) and the baseline of wCQ's Figure 11 family plots.
// Same layer stack as the kernel (Geometry's arithmetic and Cache_Remap
// layout, plain 64-bit entries) with two deliberate regressions the
// later designs exist to fix:
//
//  - Head/Tail advance by CAS, not FAA: an enqueuer installs its entry
//    first and then CAS-bumps Tail (losers that see the installed
//    entry help-bump). Under contention every op is a CAS storm on the
//    same two counters — the livelock the threshold-era designs cite.
//  - No threshold: "empty" is the bare Tail <= Head comparison, and a
//    dequeuer that keeps losing its Head CAS can spin indefinitely even
//    on a near-empty queue. Entries are never cleared on dequeue —
//    consumption is tracked by Head position alone.
//
// The queue is scq.hpp's TwoRingQueue (aq free indices, fq filled),
// which also supplies the invariant that makes the naive ring sound
// here: at most `capacity` indices are live per ring, so an
// install at Tail can never overwrite an unconsumed value (Tail - Head
// <= capacity < ring_size). The ring keeps the family's 2n geometry
// and layout for like-for-like memory and cache behaviour in the
// figure benches.
#pragma once

#include <atomic>
#include <cstdint>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/scq.hpp"

namespace wcq {

class NcqRing {
 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,
    kContended = 2,
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // `full` starts the ring holding indices 0..capacity-1 in order,
  // written as the state `capacity` enqueue_idx calls into the empty
  // ring leave: index i at position ring_size + i (entry map(i), cycle
  // 1), Tail capacity past Head.
  NcqRing(unsigned order, bool full)
      : geo_(order, sizeof(ring::PlainEntry)) {
    entries_ = static_cast<ring::PlainEntry*>(
        mem::alloc(geo_.ring_size() * sizeof(ring::PlainEntry)));
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      const std::uint64_t i = geo_.unmap(j);
      entries_[j].word.store(full && i < geo_.capacity()
                                 ? geo_.pack(1, true, i)
                                 : geo_.pack(0, true, geo_.bot()),
                             std::memory_order_relaxed);
    }
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size() + (full ? geo_.capacity() : 0),
                std::memory_order_relaxed);
  }

  ~NcqRing() {
    mem::free(entries_, geo_.ring_size() * sizeof(ring::PlainEntry));
  }

  NcqRing(const NcqRing&) = delete;
  NcqRing& operator=(const NcqRing&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  // Install an index at Tail. No ticket is reserved up front: everyone
  // races a CAS on the entry at the *current* Tail position, and Tail
  // moves only after the install is visible. `access`, the stage's data
  // access (scq.hpp), runs first, since there is no ticket to run it
  // after.
  template <typename Access = detail::NoAccess>
  [[gnu::always_inline]] Result enqueue_idx(std::uint64_t eidx,
                                            std::uint64_t max_iters,
                                            Access access = {}) {
    access();
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      std::uint64_t t = tail_.load(std::memory_order_seq_cst);
      const std::uint64_t tcycle = geo_.cycle_of_pos(t);
      const std::uint64_t j = geo_.map(t);
      const std::uint64_t e = entries_[j].word.load(std::memory_order_acquire);
      const std::uint64_t ecycle = geo_.cycle_of_entry(e);
      if (ecycle == tcycle) {
        // Position t is already installed; help bump Tail and retry.
        tail_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst);
        continue;
      }
      if (ecycle + 1 != tcycle) continue;  // stale Tail/entry pair
      std::uint64_t expected = e;
      if (entries_[j].word.compare_exchange_strong(
              expected, geo_.pack(tcycle, true, eidx),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        tail_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst);
        return kOk;
      }
    }
    return kContended;
  }

  // Claim the value at Head by CAS-advancing Head past it. The entry
  // is left in place: Head moving past a position *is* its
  // consumption. kEmpty is the naive Tail <= Head observation — there
  // is no definitive-empty budget to spend, which is precisely NCQ's
  // livelock exposure.
  [[gnu::always_inline]] Result dequeue_idx(std::uint64_t* out,
                                            std::uint64_t max_iters) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      std::uint64_t h = head_.load(std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = geo_.map(h);
      const std::uint64_t e = entries_[j].word.load(std::memory_order_acquire);
      if (geo_.cycle_of_entry(e) == hcycle) {
        // Position h holds this cycle's value. Whoever wins the Head
        // CAS owns it; the entry cannot change again until Head has
        // passed it (the next install at j needs Tail >= h + ring_size
        // which needs Head > h), so the pre-CAS read is the value.
        if (head_.compare_exchange_strong(h, h + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
          *out = geo_.idx_of_entry(e);
          return kOk;
        }
        continue;
      }
      if (tail_.load(std::memory_order_seq_cst) <= h) return kEmpty;
      // Entry not yet at our cycle but Tail is ahead: an install or a
      // Tail bump is in flight; re-read.
    }
    return kContended;
  }

 private:
  const ring::Geometry geo_;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::PlainEntry* entries_ = nullptr;
};

// NCQ as a bounded MPMC queue of 64-bit values: the two-ring
// construction over naive rings.
class NcqQueue : public TwoRingQueue<NcqRing> {
 public:
  explicit NcqQueue(const options& opt) : TwoRingQueue(opt, "ncq") {}
};

}  // namespace wcq
