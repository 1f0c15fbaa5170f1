// NCQ — the naive circular queue, the SCQ paper's strawman (Nikolaev,
// DISC 2019, Alg. 1) and the baseline of wCQ's Figure 11 family plots.
// Same layer stack as the kernel (Geometry arithmetic, Remap, plain
// 64-bit entries) with two deliberate regressions the later designs
// exist to fix:
//
//  - Head/Tail advance by CAS, not FAA: an enqueuer installs its entry
//    first and then CAS-bumps Tail (losers that see the installed
//    entry help-bump). Under contention every op is a CAS storm on the
//    same two counters — the livelock the threshold-era designs cite.
//  - No threshold (ring::NoThreshold): "empty" is the bare Tail <= Head
//    comparison, and a dequeuer that keeps losing its Head CAS can spin
//    indefinitely even on a near-empty queue. Entries are never cleared
//    on dequeue — consumption is tracked by Head position alone.
//
// The queue is the usual two-ring construction (aq free indices, fq
// filled), which also supplies the invariant that makes the naive ring
// sound here: at most `capacity` indices are live per ring, so an
// install at Tail can never overwrite an unconsumed value (Tail - Head
// <= capacity < ring_size). The ring keeps the family's 2n geometry
// for like-for-like memory and remap behaviour in the figure benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/ring_policy.hpp"

namespace wcq {

class NcqRing {
 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,
    kContended = 2,
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  NcqRing(unsigned order, bool remap)
      : geo_(order),
        remap_(remap ? ring::Remap::cache(geo_, kLineBits)
                     : ring::Remap::identity(geo_)),
        threshold_(geo_) {
    entries_ = static_cast<ring::PlainEntry*>(
        mem::alloc(geo_.ring_size() * sizeof(ring::PlainEntry)));
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      entries_[j].word.store(geo_.pack(0, true, geo_.bot()),
                             std::memory_order_relaxed);
    }
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size(), std::memory_order_relaxed);
  }

  ~NcqRing() {
    mem::free(entries_, geo_.ring_size() * sizeof(ring::PlainEntry));
  }

  NcqRing(const NcqRing&) = delete;
  NcqRing& operator=(const NcqRing&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  // Install an index at Tail. No ticket is reserved up front: everyone
  // races a CAS on the entry at the *current* Tail position, and Tail
  // moves only after the install is visible.
  Result enqueue_idx(std::uint64_t eidx, std::uint64_t max_iters) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      std::uint64_t t = tail_.load(std::memory_order_seq_cst);
      const std::uint64_t tcycle = geo_.cycle_of_pos(t);
      const std::uint64_t j = remap_.map(t);
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
        threshold_.arm();  // NoThreshold: compiles to nothing
        return kOk;
      }
    }
    return kContended;
  }

  // Claim the value at Head by CAS-advancing Head past it. The entry
  // is left in place: Head moving past a position *is* its
  // consumption. kEmpty is the naive Tail <= Head observation — there
  // is no definitive-empty budget to spend (threshold_.spent() is
  // constant false), which is precisely NCQ's livelock exposure.
  Result dequeue_idx(std::uint64_t* out, std::uint64_t max_iters) {
    if (threshold_.spent()) return kEmpty;  // never: documents the slot
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      std::uint64_t h = head_.load(std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = remap_.map(h);
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
  static constexpr unsigned kLineBits =
      detail::log2_pow2(detail::kCacheLine / sizeof(ring::PlainEntry));

  const ring::Geometry geo_;
  const ring::Remap remap_;
  // The empty (absent) policy slot — see ring_policy.hpp.
  [[no_unique_address]] ring::NoThreshold threshold_;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::PlainEntry* entries_ = nullptr;
};

// NCQ as a bounded MPMC queue of 64-bit values: the same two-ring
// construction as ScqQueue, over naive rings.
class NcqQueue {
 public:
  using Handle = TrivialHandle;

  // Reads order (capacity = 2^order values) and remap.
  explicit NcqQueue(const options& opt)
      : n_(std::uint64_t{1} << opt.validate("ncq", ring::kMaxOrder).order()),
        aq_(opt.order(), opt.remap()),
        fq_(opt.order(), opt.remap()) {
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
      aq_.enqueue_idx(i, NcqRing::kUnbounded);
    }
  }

  ~NcqQueue() { mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>)); }

  NcqQueue(const NcqQueue&) = delete;
  NcqQueue& operator=(const NcqQueue&) = delete;

  std::uint64_t capacity() const { return n_; }

  Handle get_handle() { return Handle{}; }
  std::optional<Handle> try_get_handle() { return Handle{}; }

  // False iff the queue is full.
  bool try_push(std::uint64_t v, Handle&) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, NcqRing::kUnbounded) == NcqRing::kEmpty) {
      return false;  // no free slots: full
    }
    data_[idx].store(v, std::memory_order_relaxed);
    fq_.enqueue_idx(idx, NcqRing::kUnbounded);
    return true;
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle&) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, NcqRing::kUnbounded) == NcqRing::kEmpty) {
      return false;
    }
    *v = data_[idx].load(std::memory_order_relaxed);
    aq_.enqueue_idx(idx, NcqRing::kUnbounded);
    return true;
  }

 private:
  const std::uint64_t n_;
  NcqRing aq_;  // free slots (starts full)
  NcqRing fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

}  // namespace wcq
