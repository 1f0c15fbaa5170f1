/// \file
/// wcq::smr — the shared safe-memory-reclamation layer every
/// dynamic-memory backend (MSQ, FAA, LCRQ, LSCQ) routes retired nodes
/// through.
///
/// One Domain per queue, sized by the queue's max_threads: each
/// handle slot owns a fixed strip of hazard-pointer words plus one
/// epoch word, so the reclamation state — like the ThreadRec records
/// it sits next to — is bounded by *concurrent* participants
/// (SlotRegistry recycles the slots; quiesce() is the hand-back
/// hook).
///
/// Two protection idioms, usable together or alone per backend:
///
///  - Hazard pointers (Michael 2004; the YMC `check`/`update` hazard
///    idiom in SNIPPETS.md is the same shape): protect(slot, i, src)
///    publishes a pointer and re-validates the source until stable.
///    A retired node whose address is published anywhere is not
///    freed. MSQ and LCRQ use this for the node / ring currently in
///    hand.
///  - Epochs: pin(slot) publishes the current global epoch for the
///    duration of an operation. A node retired at epoch e is not
///    freed until every pinned slot shows an epoch strictly greater
///    than e — so any pointer obtained inside a pinned region stays
///    valid even when it was never individually protected. FAA uses
///    this for its segment walks (many transient segment pointers per
///    op; per-node hazards would cost a validation fence each hop).
///
/// Retiring is wait-free and amortized: retired nodes park on the
/// calling slot's local list, stamped with the current epoch; when
/// the list reaches the amnesty bound (MAX_GARBAGE shape: 2 x
/// max_threads, unless the Domain constructor is given another) the
/// slot scans — one epoch bump, one snapshot of all
/// hazard words and pinned epochs — and frees every node that is both
/// unprotected and epoch-safe. Total parked garbage is therefore
/// bounded by max_threads x threshold (+ nodes pinned by laggards),
/// restoring the bounded-memory comparison Figure 10 is supposed to
/// make.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <vector>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"

namespace wcq::smr {

/// Domain-wide reclamation counters, summed over all slots.
struct Stats {
  std::uint64_t retired_nodes = 0;    ///< currently parked, not yet freed
  std::uint64_t reclaimed_nodes = 0;  ///< freed by scans (not the dtor)
  std::uint64_t retire_calls = 0;     ///< total retire() invocations
  std::uint64_t scans = 0;            ///< reclamation scans run
};

/// One reclamation domain per queue: hazard-pointer strips + epoch
/// words per handle slot, slot-local retire lists with an amnesty
/// bound.
class Domain {
 public:
  /// Hazard words per slot. Two is what the classic algorithms need
  /// (MSQ protects a node and its successor; LCRQ one ring at a
  /// time).
  static constexpr unsigned kHazardsPerSlot = 2;
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  /// retire_threshold 0 = auto: MAX_GARBAGE(n) = 2n per slot.
  explicit Domain(unsigned max_slots, unsigned retire_threshold = 0)
      : slots_(max_slots),
        threshold_(retire_threshold != 0 ? retire_threshold
                                         : 2 * (max_slots ? max_slots : 1)),
        state_(static_cast<SlotState*>(
            mem::alloc(slots_ * sizeof(SlotState), alignof(SlotState)))) {
    for (unsigned i = 0; i < slots_; ++i) new (&state_[i]) SlotState();
  }

  /// Teardown contract mirrors the queues': no concurrent access.
  /// Every still-parked node is freed unconditionally.
  ~Domain() {
    for (unsigned i = 0; i < slots_; ++i) {
      for (const Retired& r : state_[i].retired) r.del(r.p, r.ctx);
      state_[i].~SlotState();
    }
    mem::free(state_, slots_ * sizeof(SlotState), alignof(SlotState));
  }

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  // ---- hazard pointers ----

  /// Publish src's current value as hazard `i` of `slot` and re-read
  /// until the publication provably happened before a load that still
  /// sees the same pointer; from then on the pointee cannot be freed
  /// until the hazard is overwritten or cleared.
  template <typename T>
  T* protect(unsigned slot, unsigned i, const std::atomic<T*>& src) {
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      state_[slot].hp[i].store(p, std::memory_order_seq_cst);
      T* again = src.load(std::memory_order_seq_cst);
      if (again == p) return p;
      p = again;
    }
  }

  void clear_hazard(unsigned slot, unsigned i) {
    state_[slot].hp[i].store(nullptr, std::memory_order_release);
  }

  // ---- epochs ----

  /// Enter a pinned region: everything reachable from the data
  /// structure's shared roots right now (and everything retired while
  /// we stay pinned) outlives the region.
  void pin(unsigned slot) {
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    state_[slot].epoch.store(e, std::memory_order_seq_cst);
  }

  void unpin(unsigned slot) {
    state_[slot].epoch.store(kQuiescent, std::memory_order_release);
  }

  /// RAII pin for backends whose every operation is one pinned
  /// region.
  class Pin {
   public:
    Pin(Domain& d, unsigned slot) : d_(d), slot_(slot) { d_.pin(slot_); }
    ~Pin() { d_.unpin(slot_); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    Domain& d_;
    unsigned slot_;
  };

  // ---- retire / scan ----

  /// Hand `p` to the domain; del(p, ctx) runs once `p` is provably
  /// unreachable (no hazard holds it, no pinned slot predates its
  /// retirement). Caller must have already unlinked `p` from every
  /// shared root. Only the owner of `slot` may call (slot-local
  /// list).
  void retire(unsigned slot, void* p, void (*del)(void*, void*), void* ctx) {
    SlotState& s = state_[slot];
    s.retired.push_back(
        Retired{p, del, ctx, epoch_.load(std::memory_order_acquire)});
    s.retired_count.store(s.retired.size(), std::memory_order_relaxed);
    s.retire_calls.fetch_add(1, std::memory_order_relaxed);
    if (s.retired.size() >= threshold_) scan(slot);
  }

  /// Free every node on `slot`'s list that no hazard protects and no
  /// pinned epoch can still reach. Advances the global epoch first so
  /// quiescent-but-returning readers land on the young side of the
  /// cut.
  void scan(unsigned slot) {
    SlotState& s = state_[slot];
    s.scans.fetch_add(1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_seq_cst);

    // Snapshot the protection state *after* the bump: any reader that
    // pins later sees post-unlink roots and cannot reach our
    // retirees.
    std::uint64_t min_epoch = epoch_.load(std::memory_order_seq_cst);
    std::vector<void*> hazards;
    hazards.reserve(slots_ * kHazardsPerSlot);
    for (unsigned i = 0; i < slots_; ++i) {
      for (unsigned j = 0; j < kHazardsPerSlot; ++j) {
        if (void* h = state_[i].hp[j].load(std::memory_order_seq_cst)) {
          hazards.push_back(h);
        }
      }
      const std::uint64_t e = state_[i].epoch.load(std::memory_order_seq_cst);
      if (e != kQuiescent && e < min_epoch) min_epoch = e;
    }

    auto protected_by_hazard = [&](void* p) {
      for (void* h : hazards) {
        if (h == p) return true;
      }
      return false;
    };

    std::size_t kept = 0;
    for (std::size_t i = 0; i < s.retired.size(); ++i) {
      const Retired& r = s.retired[i];
      // Strict <: a reader pinned at exactly r.epoch may have taken
      // its root pointer before the unlink that preceded this retire.
      if (r.epoch < min_epoch && !protected_by_hazard(r.p)) {
        r.del(r.p, r.ctx);
        s.reclaimed.fetch_add(1, std::memory_order_relaxed);
      } else {
        s.retired[kept++] = r;
      }
    }
    s.retired.resize(kept);
    s.retired_count.store(kept, std::memory_order_relaxed);
  }

  /// Handle hand-back hook: drop the slot's protections and try to
  /// drain its list. Leftovers stay parked on the slot — the next
  /// handle recycled onto it inherits them, and the destructor is the
  /// backstop — so nothing leaks and nothing is freed early.
  void quiesce(unsigned slot) {
    for (unsigned j = 0; j < kHazardsPerSlot; ++j) clear_hazard(slot, j);
    unpin(slot);
    if (!state_[slot].retired.empty()) scan(slot);
  }

  unsigned threshold() const { return threshold_; }

  Stats stats() const {
    Stats out;
    for (unsigned i = 0; i < slots_; ++i) {
      out.retired_nodes +=
          state_[i].retired_count.load(std::memory_order_relaxed);
      out.reclaimed_nodes +=
          state_[i].reclaimed.load(std::memory_order_relaxed);
      out.retire_calls +=
          state_[i].retire_calls.load(std::memory_order_relaxed);
      out.scans += state_[i].scans.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct Retired {
    void* p;
    void (*del)(void*, void*);
    void* ctx;
    std::uint64_t epoch;
  };

  struct alignas(detail::kNoFalseSharing) SlotState {
    std::atomic<void*> hp[kHazardsPerSlot] = {};
    std::atomic<std::uint64_t> epoch{kQuiescent};
    // Owner-only (the slot holder; recycled with the slot). The
    // atomic mirrors below exist so stats()/tests can read counts
    // from other threads without touching the vector.
    std::vector<Retired> retired;
    std::atomic<std::uint64_t> retired_count{0};
    std::atomic<std::uint64_t> reclaimed{0};
    std::atomic<std::uint64_t> retire_calls{0};
    std::atomic<std::uint64_t> scans{0};
  };

  const unsigned slots_;
  const unsigned threshold_;
  SlotState* state_;
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> epoch_{1};
};

}  // namespace wcq::smr
