// LCRQ (Morrison & Afek, PPoPP 2013): linked concurrent ring queues —
// the paper's fastest unbounded baseline and the design wCQ's Figure
// 10 contrasts on memory. Each CRQ is a closed ring of
// {value, safe|index} cells mutated by double-width CAS (the same
// cmpxchg16b / portable-__atomic machinery as the wCQ note protocol,
// detail::cas2); enqueue FAAs the ring tail for a ticket and CAS2es
// its cell from EMPTY, dequeue FAAs head and either harvests the
// value or poisons the cell for that round. A ring that fills (or
// starves) is *closed* — bit 63 of its tail — and a fresh ring is
// linked Michael-Scott style; drained rings are retired through the
// shared SMR layer under a hazard pointer, so the churn Figure 10
// shows is in-flight rings only, not a leak.
//
// Value ~0 is reserved as the cell-EMPTY sentinel and refused by
// try_push (boxed slot_codec callers are unaffected: pointers never
// collide with it).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

class LcrqQueue {
 public:
  using Handle = RegistryHandle<LcrqQueue>;

  static constexpr std::uint64_t kEmptyVal = ~std::uint64_t{0};

  // Largest ring order: keeps the packed [safe | idx] arithmetic of a
  // cell's sidx word far from overflow.
  static constexpr unsigned kMaxOrder = 30;

  // Reads order (2^order cells per ring, paper §6 default 16) and
  // max_threads.
  explicit LcrqQueue(const options& opt)
      : order_(opt.validate("lcrq", kMaxOrder).order()),
        ring_size_(std::uint64_t{1} << order_),
        slots_(opt.max_threads()),
        smr_(slots_.capacity()) {
    Crq* c = new_crq();
    head_.store(c, std::memory_order_relaxed);
    tail_.store(c, std::memory_order_relaxed);
  }

  ~LcrqQueue() {
    assert(slots_.live() == 0 &&
           "lcrq: a Handle is outliving its queue (use-after-free ahead)");
    // head_ anchors every live ring; retired rings are freed by the
    // domain's destructor.
    Crq* c = head_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      Crq* next = c->next.load(std::memory_order_relaxed);
      free_crq(this, c);
      c = next;
    }
  }

  LcrqQueue(const LcrqQueue&) = delete;
  LcrqQueue& operator=(const LcrqQueue&) = delete;

  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, slot);
  }

  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "lcrq: all max_threads handle slots are simultaneously live");
    }
    return std::move(*h);
  }

  // Succeeds for every storable value (unbounded: a closed ring is
  // replaced by a fresh one). The all-ones pattern is the EMPTY cell
  // sentinel and is refused (false) rather than silently lost.
  bool try_push(std::uint64_t v, Handle& h) {
    if (v == kEmptyVal) return false;
    const unsigned slot = h.slot();
    for (;;) {
      // The hazard keeps the ring alive across its FAA/CAS2s even if
      // dequeuers drain and retire it meanwhile.
      Crq* c = smr_.protect(slot, 0, tail_);
      if (Crq* next = c->next.load(std::memory_order_acquire)) {
        // Someone already appended; help swing tail and retry there.
        tail_.compare_exchange_strong(c, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
      if (crq_enqueue(c, v)) return true;
      // Ring closed. Seed a fresh ring with the value (an enqueue on
      // an empty unclosed ring cannot fail) and link it.
      Crq* fresh = new_crq();
      const bool seeded = crq_enqueue(fresh, v);
      assert(seeded && "enqueue on a fresh ring cannot fail");
      (void)seeded;
      Crq* expected = nullptr;
      if (c->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(c, fresh, std::memory_order_release,
                                      std::memory_order_relaxed);
        return true;
      }
      free_crq(this, fresh);  // lost the append race; nobody saw ours
    }
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      Crq* c = smr_.protect(slot, 0, head_);
      if (crq_dequeue(c, v)) return true;
      Crq* next = c->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // no successor: truly empty
      // A successor exists, so the ring is closed — but an enqueue may
      // have slipped in between our empty observation and the close.
      // One more dequeue is definitive (Morrison & Afek §3.2).
      if (crq_dequeue(c, v)) return true;
      Crq* expected = c;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        smr_.retire(slot, c, &free_crq_erased, this);
      }
    }
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

  unsigned ring_order() const { return order_; }

 private:
  friend class RegistryHandle<LcrqQueue>;

  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kIdxMask = kClosedBit - 1;
  // Failed enqueue transitions tolerated before closing the ring: the
  // anti-starvation close of §3.1 (the full-ring test handles the
  // common case; this bounds livelock on repeatedly poisoned cells).
  static constexpr unsigned kStarvationLimit = 4096;

  void release_slot(unsigned slot) {
    smr_.quiesce(slot);
    slots_.release(slot);
  }

  // A cell is a {val, sidx} pair mutated together by CAS2 and read as
  // two plain 64-bit atomics — the same mixed-width aliasing contract
  // as the noted ring's entries (see detail::Pair). sidx packs
  // [safe:1 | idx:63].
  struct alignas(16) Cell {
    std::atomic<std::uint64_t> val;
    std::atomic<std::uint64_t> sidx;
  };
  static_assert(sizeof(Cell) == sizeof(detail::Pair));
  static_assert(offsetof(Cell, val) == offsetof(detail::Pair, word) &&
                offsetof(Cell, sidx) == offsetof(detail::Pair, note));

  struct Crq {
    alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head{0};
    // Bit 63 is the closed flag; low bits are the enqueue ticket.
    alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail{0};
    alignas(detail::kNoFalseSharing) std::atomic<Crq*> next{nullptr};
    // ring_size_ cells live in trailing storage (see cells()).
    Cell* cells() { return reinterpret_cast<Cell*>(this + 1); }
  };

  static constexpr std::uint64_t pack_sidx(bool safe, std::uint64_t idx) {
    return (static_cast<std::uint64_t>(safe) << 63) | (idx & kIdxMask);
  }
  static constexpr bool sidx_safe(std::uint64_t s) { return (s >> 63) != 0; }
  static constexpr std::uint64_t sidx_idx(std::uint64_t s) {
    return s & kIdxMask;
  }

  static bool cell_cas(Cell* cell, detail::Pair expected,
                       detail::Pair desired) {
    return detail::cas2(reinterpret_cast<detail::Pair*>(cell), &expected,
                        desired);
  }

  // Enqueue into one ring. False iff the ring is (or became) closed.
  bool crq_enqueue(Crq* c, std::uint64_t v) {
    unsigned tries = 0;
    for (;;) {
      const std::uint64_t traw =
          c->tail.fetch_add(1, std::memory_order_seq_cst);
      if (traw & kClosedBit) return false;
      const std::uint64_t t = traw;
      Cell* cell = &c->cells()[t & (ring_size_ - 1)];
      const std::uint64_t sidx = cell->sidx.load(std::memory_order_acquire);
      const std::uint64_t val = cell->val.load(std::memory_order_acquire);
      const std::uint64_t idx = sidx_idx(sidx);
      // The cell is usable for ticket t when it is empty, still on an
      // earlier round (idx <= t), and either safe or provably not
      // awaited by a dequeuer (head <= t).
      if (val == kEmptyVal && idx <= t &&
          (sidx_safe(sidx) ||
           c->head.load(std::memory_order_seq_cst) <= t)) {
        if (cell_cas(cell, {kEmptyVal, sidx}, {v, pack_sidx(true, t)})) {
          return true;
        }
      }
      // Transition failed. Close when full or starving, else re-FAA.
      const std::uint64_t h = c->head.load(std::memory_order_seq_cst);
      if (static_cast<std::int64_t>(t - h) >=
              static_cast<std::int64_t>(ring_size_) ||
          ++tries >= kStarvationLimit) {
        c->tail.fetch_or(kClosedBit, std::memory_order_seq_cst);
        return false;
      }
    }
  }

  // Dequeue from one ring. False iff the ring is observed empty
  // (head caught up with tail; tail repaired via fix_state).
  bool crq_dequeue(Crq* c, std::uint64_t* out) {
    for (;;) {
      const std::uint64_t h = c->head.fetch_add(1, std::memory_order_seq_cst);
      Cell* cell = &c->cells()[h & (ring_size_ - 1)];
      for (;;) {
        const std::uint64_t sidx = cell->sidx.load(std::memory_order_acquire);
        const std::uint64_t val = cell->val.load(std::memory_order_acquire);
        // Re-read to pin a consistent {val, sidx} snapshot (the CAS2
        // writers change both together; sidx changes on every round).
        if (cell->sidx.load(std::memory_order_acquire) != sidx) continue;
        const std::uint64_t idx = sidx_idx(sidx);
        const bool safe = sidx_safe(sidx);
        if (idx > h) break;  // cell already advanced past our round
        if (val != kEmptyVal) {
          if (idx == h) {
            // Our round's value: consume, advancing the cell a round.
            if (cell_cas(cell, {val, sidx},
                         {kEmptyVal, pack_sidx(safe, h + ring_size_)})) {
              *out = val;
              return true;
            }
          } else {
            // Value from an older round: mark the cell unsafe so its
            // enqueuer's round cannot be served out of order.
            if (cell_cas(cell, {val, sidx}, {val, pack_sidx(false, idx)})) {
              break;
            }
          }
        } else {
          // Empty cell: poison our round so a late enqueuer with
          // ticket h fails its CAS2 and retries elsewhere.
          if (cell_cas(cell, {kEmptyVal, sidx},
                       {kEmptyVal, pack_sidx(safe, h + ring_size_)})) {
            break;
          }
        }
      }
      const std::uint64_t t =
          c->tail.load(std::memory_order_seq_cst) & kIdxMask;
      if (t <= h + 1) {
        fix_state(c);
        return false;
      }
    }
  }

  // Head can overrun tail when dequeuers race an emptying ring; CAS
  // tail up to head (keeping the closed bit) so enqueue tickets do
  // not land on already-poisoned rounds forever.
  static void fix_state(Crq* c) {
    for (;;) {
      std::uint64_t traw = c->tail.load(std::memory_order_seq_cst);
      const std::uint64_t h = c->head.load(std::memory_order_seq_cst);
      if (sidx_idx(traw) >= h) return;  // consistent (or closed-huge)
      if (c->tail.compare_exchange_strong(traw, (traw & kClosedBit) | h,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
        return;
      }
    }
  }

  std::size_t crq_bytes() const {
    return sizeof(Crq) + ring_size_ * sizeof(Cell);
  }

  Crq* new_crq() {
    void* raw = mem::alloc(crq_bytes());
    Crq* c = new (raw) Crq();
    Cell* cells = c->cells();
    for (std::uint64_t i = 0; i < ring_size_; ++i) {
      new (&cells[i].val) std::atomic<std::uint64_t>(kEmptyVal);
      new (&cells[i].sidx) std::atomic<std::uint64_t>(pack_sidx(true, i));
    }
    return c;
  }

  static void free_crq(LcrqQueue* q, Crq* c) {
    c->~Crq();
    mem::free(c, q->crq_bytes());
  }

  static void free_crq_erased(void* p, void* ctx) {
    free_crq(static_cast<LcrqQueue*>(ctx), static_cast<Crq*>(p));
  }

  const unsigned order_;
  const std::uint64_t ring_size_;

  alignas(detail::kNoFalseSharing) std::atomic<Crq*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Crq*> tail_{nullptr};
  SlotRegistry slots_;
  smr::Domain smr_;
};

}  // namespace wcq
