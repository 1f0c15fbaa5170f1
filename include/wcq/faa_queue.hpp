// FAA baseline: the unbounded fetch-and-add array queue (the "FAA"
// series of the paper's figures and the skeleton under LCRQ/YMC-style
// designs). Enqueue FAAs a tail counter and CASes its slot from EMPTY
// to the value; dequeue FAAs head and XCHGs the slot with TAKEN.
// Storage is a linked list of fixed-size segments allocated through
// the counting allocator; drained segments are retired through the
// shared SMR layer (wcq/smr.hpp) under epoch pinning — every
// operation is one pinned region, so the many transient segment
// pointers a hint walk touches stay valid without per-hop hazards.
// The queue is still unbounded at any instant the producers outrun
// the consumers (that is the Figure 10 contrast with wCQ/SCQ's static
// rings), but consumed segments no longer pile up until destruction.
//
// Values ~0 and ~0-1 are reserved as sentinels.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <optional>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

class FaaQueue {
 public:
  using Handle = smr::Domain::Handle;

  static constexpr std::uint64_t kEmptyCell = ~std::uint64_t{0};
  static constexpr std::uint64_t kTakenCell = ~std::uint64_t{0} - 1;

  // Reads max_threads.
  explicit FaaQueue(const options& opt)
      : smr_(opt.validate("faa").max_threads()) {
    Segment* first = new_segment(0);
    first_.store(first, std::memory_order_relaxed);
    head_seg_.store(first, std::memory_order_relaxed);
    tail_seg_.store(first, std::memory_order_relaxed);
  }

  ~FaaQueue() {
    // Live segments hang off first_; retired ones are freed by the
    // domain's destructor.
    Segment* s = first_.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      free_segment(this, s);
      s = next;
    }
  }

  FaaQueue(const FaaQueue&) = delete;
  FaaQueue& operator=(const FaaQueue&) = delete;

  std::optional<Handle> try_get_handle() { return smr_.try_get_handle(); }

  // Succeeds for every storable value (unbounded). The top two slot
  // patterns are the EMPTY/TAKEN sentinels of the FAA protocol and
  // cannot be stored: they are refused here (false) rather than
  // silently lost — a CAS of kEmptyCell over kEmptyCell "succeeds"
  // while leaving the cell empty. Typed callers that need the full
  // 64-bit value space over this backend must use a boxed
  // slot_codec (pointers never collide with the sentinels).
  [[gnu::noinline]] bool try_push(std::uint64_t v, Handle& h) {
    if (v >= kTakenCell) return false;
    smr::Domain::Pin pin(smr_, h.slot());
    return push_impl(v);
  }

  // False iff the queue is empty.
  [[gnu::noinline]] bool try_pop(std::uint64_t* v, Handle& h) {
    smr::Domain::Pin pin(smr_, h.slot());
    return pop_impl(v, h.slot());
  }

  // Batch enqueue: claims tickets for a whole run of values with ONE
  // tail FAA and deposits them on consecutive cells, hoisting the
  // segment lookup out of the per-value loop. Returns the number of
  // values accepted: the longest sentinel-free prefix of vs (a
  // sentinel stops the batch exactly where try_push would refuse it).
  // Per-pusher FIFO is preserved: when a racing dequeuer poisons a
  // cell mid-burst, the *remaining* values — not just the collided
  // one — are re-ticketed together, so their relative order survives.
  std::size_t try_push_n(const std::uint64_t* vs, std::size_t n, Handle& h) {
    std::size_t k = 0;
    while (k < n && vs[k] < kTakenCell) ++k;
    if (k == 0) return 0;
    smr::Domain::Pin pin(smr_, h.slot());
    const std::uint64_t* p = vs;
    std::size_t rem = k;
    while (rem > 0) {
      const std::uint64_t t0 =
          tail_.fetch_add(rem, std::memory_order_seq_cst);
      Segment* s = nullptr;
      std::size_t done = 0;
      for (; done < rem; ++done) {
        const std::uint64_t t = t0 + done;
        if (s == nullptr || s->id != (t >> kSegOrder)) {
          s = find_segment(&tail_seg_, t >> kSegOrder);
        }
        std::uint64_t expected = kEmptyCell;
        if (!s->slots()[t & (kSegSlots - 1)].compare_exchange_strong(
                expected, p[done], std::memory_order_release,
                std::memory_order_relaxed)) {
          // A too-fast dequeuer consumed this ticket. Abandon the rest
          // of the burst's tickets (their cells stay EMPTY; dequeuers
          // skip them) and re-burst the undeposited suffix in order.
          break;
        }
      }
      // done counts deposits only; a collided value leads the next
      // burst, keeping the suffix in order.
      p += done;
      rem -= done;
    }
    return k;
  }

  // Batch dequeue: claims up to n head tickets with ONE FAA (bounded
  // by the observed tail so an empty queue costs no tickets) and
  // collects the deposited cells in ticket order. Returns how many
  // values landed in out — possibly fewer than claimed when racing
  // enqueuers had not yet deposited (their values are re-ticketed by
  // their own retry loop; nothing is lost), zero iff empty.
  std::size_t try_pop_n(std::uint64_t* out, std::size_t n, Handle& h) {
    if (n == 0) return 0;
    smr::Domain::Pin pin(smr_, h.slot());
    std::size_t got = 0;
    while (got == 0) {
      const std::uint64_t head = head_.load(std::memory_order_seq_cst);
      const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
      if (head >= tail) return 0;
      std::uint64_t k = tail - head;
      if (k > n) k = n;
      const std::uint64_t h0 =
          head_.fetch_add(k, std::memory_order_seq_cst);
      Segment* s = nullptr;
      for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t t = h0 + i;
        if (s == nullptr || s->id != (t >> kSegOrder)) {
          s = find_segment(&head_seg_, t >> kSegOrder);
        }
        const std::uint64_t old = s->slots()[t & (kSegSlots - 1)].exchange(
            kTakenCell, std::memory_order_acq_rel);
        if ((t & (kSegSlots - 1)) == 0) reclaim_segments(h.slot());
        if (old != kEmptyCell) out[got++] = old;
      }
    }
    return got;
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

 private:
  // 2^10 = 1024 slots per segment.
  static constexpr unsigned kSegOrder = 10;
  static constexpr std::uint64_t kSegSlots = std::uint64_t{1} << kSegOrder;

  bool push_impl(std::uint64_t v) {
    assert(v < kTakenCell && "sentinel values cannot be enqueued");
    for (;;) {
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
      Segment* s = find_segment(&tail_seg_, t >> kSegOrder);
      std::uint64_t expected = kEmptyCell;
      if (s->slots()[t & (kSegSlots - 1)].compare_exchange_strong(
              expected, v, std::memory_order_release,
              std::memory_order_relaxed)) {
        return true;
      }
      // Slot was poisoned by a too-fast dequeuer; take a new ticket.
    }
  }

  bool pop_impl(std::uint64_t* v, unsigned slot) {
    for (;;) {
      if (head_.load(std::memory_order_seq_cst) >=
          tail_.load(std::memory_order_seq_cst)) {
        return false;
      }
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      Segment* s = find_segment(&head_seg_, h >> kSegOrder);
      const std::uint64_t old = s->slots()[h & (kSegSlots - 1)].exchange(
          kTakenCell, std::memory_order_acq_rel);
      // First ticket of a segment: a previous segment just became
      // fully issued — amortized point to retire drained segments.
      if ((h & (kSegSlots - 1)) == 0) reclaim_segments(slot);
      if (old != kEmptyCell) {
        *v = old;
        return true;
      }
    }
  }

  struct alignas(detail::kCacheLine) Segment {
    std::uint64_t id = 0;
    Segment* prev = nullptr;  // immutable after publication
    std::atomic<Segment*> next{nullptr};
    // kSegSlots atomic slots live in trailing storage (see slots()).
    std::atomic<std::uint64_t>* slots() {
      return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
    }
  };

  std::size_t segment_bytes() const {
    return sizeof(Segment) + kSegSlots * sizeof(std::atomic<std::uint64_t>);
  }

  Segment* new_segment(std::uint64_t id) {
    void* raw = mem::alloc(segment_bytes());
    Segment* s = new (raw) Segment();
    s->id = id;
    std::atomic<std::uint64_t>* slots = s->slots();
    for (std::uint64_t i = 0; i < kSegSlots; ++i) {
      new (&slots[i]) std::atomic<std::uint64_t>(kEmptyCell);
    }
    return s;
  }

  static void free_segment(FaaQueue* q, Segment* s) {
    s->~Segment();
    mem::free(s, q->segment_bytes());
  }

  static void free_segment_erased(void* p, void* ctx) {
    free_segment(static_cast<FaaQueue*>(ctx), static_cast<Segment*>(p));
  }

  // Unlink and retire every segment no new operation can reach. A
  // segment `s` is unreachable for threads that pin after this point
  // once (a) both tickets streams have left it — no future ticket
  // maps into s — and (b) both hints have advanced past it: the
  // forward walk starts at a hint (id > s->id, never descends) and
  // the backward walk only visits ids >= its target, which is a
  // future ticket's segment, also > s->id. Threads pinned *before*
  // the retirement may still be walking across s; the domain defers
  // the free until they unpin (their epochs predate the retire
  // stamp), which is exactly the epoch idiom's job. Unlinking from
  // first_ is what keeps the destructor walk and this loop off
  // retired segments; prev/next pointers inside them stay intact for
  // the laggards.
  void reclaim_segments(unsigned slot) {
    const std::uint64_t head_id =
        head_.load(std::memory_order_acquire) >> kSegOrder;
    const std::uint64_t tail_id =
        tail_.load(std::memory_order_acquire) >> kSegOrder;
    const std::uint64_t head_hint_id =
        head_seg_.load(std::memory_order_acquire)->id;
    const std::uint64_t tail_hint_id =
        tail_seg_.load(std::memory_order_acquire)->id;
    std::uint64_t keep = head_id < tail_id ? head_id : tail_id;
    if (head_hint_id < keep) keep = head_hint_id;
    if (tail_hint_id < keep) keep = tail_hint_id;
    for (;;) {
      Segment* s = first_.load(std::memory_order_acquire);
      if (s->id >= keep) return;
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) return;  // successor not linked yet
      if (first_.compare_exchange_strong(s, next, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        smr_.retire(slot, s, &free_segment_erased, this);
      }
    }
  }

  Segment* find_segment(std::atomic<Segment*>* hint, std::uint64_t id) {
    Segment* s = hint->load(std::memory_order_acquire);
    // The shared hint can have advanced past a slow thread's target;
    // walk back over the doubly-linked segments. Segments on this
    // path may be retired but cannot be freed while we are pinned.
    while (s->id > id) s = s->prev;
    while (s->id < id) {
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        Segment* fresh = new_segment(s->id + 1);
        fresh->prev = s;
        Segment* expected = nullptr;
        if (s->next.compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          next = fresh;
        } else {
          free_segment(this, fresh);  // lost the race; nobody saw ours
          next = expected;
        }
      }
      s = next;
    }
    // Advance the hint monotonically so later ops skip the walk. Both
    // the load and the CAS failure path hand back a pointer we then
    // dereference (cur->id), so they must acquire the segment's init.
    Segment* cur = hint->load(std::memory_order_acquire);
    while (cur->id < s->id &&
           !hint->compare_exchange_weak(cur, s, std::memory_order_release,
                                        std::memory_order_acquire)) {
    }
    return s;
  }

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> head_seg_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> tail_seg_{nullptr};
  // Oldest still-linked segment: the reclaim loop's unlink anchor and
  // the destructor's walk root.
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> first_{nullptr};
  smr::Domain smr_;
};

}  // namespace wcq
