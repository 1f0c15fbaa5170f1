// LCRQ (Morrison & Afek, PPoPP 2013): linked concurrent ring queues —
// the paper's fastest unbounded baseline and the design wCQ's Figure
// 10 contrasts on memory. Each CRQ is a closed ring of
// {value, safe|index} cells mutated by double-width CAS (the same
// cmpxchg16b / portable-__atomic machinery as the wCQ note protocol,
// detail::cas2); enqueue FAAs the ring tail for a ticket and CAS2es
// its cell from EMPTY, dequeue FAAs head and either harvests the
// value or poisons the cell for that round. A ring that fills (or
// starves) is *closed* — bit 63 of its tail — and a fresh ring is
// linked Michael-Scott style (ring_list.hpp); drained rings are
// retired through the shared SMR layer under a hazard pointer, so the
// churn Figure 10 shows is in-flight rings only, not a leak.
//
// Value ~0 is reserved as the cell-EMPTY sentinel and refused by
// try_push (boxed slot_codec callers are unaffected: pointers never
// collide with it).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_list.hpp"

namespace wcq {

// One list node: a CRQ — head and tail tickets, the list link, and
// 2^order cells in trailing storage.
class Crq {
 public:
  static constexpr const char* kName = "lcrq";
  // Largest ring order: keeps the packed [safe | idx] arithmetic of a
  // cell's sidx word far from overflow.
  static constexpr unsigned kMaxOrder = 30;

  static Crq* make(unsigned order) {
    const std::uint64_t ring_size = std::uint64_t{1} << order;
    Crq* c = new (mem::alloc(bytes(ring_size))) Crq(ring_size);
    Cell* cells = c->cells();
    for (std::uint64_t i = 0; i < ring_size; ++i) {
      new (&cells[i].val) std::atomic<std::uint64_t>(kEmptyVal);
      new (&cells[i].sidx) std::atomic<std::uint64_t>(pack_sidx(true, i));
    }
    return c;
  }

  static void destroy(Crq* c) {
    const std::size_t size = bytes(c->ring_size_);
    c->~Crq();
    mem::free(c, size);
  }

  // The all-ones pattern is the EMPTY cell sentinel: refused rather
  // than silently lost.
  static constexpr bool refuses(std::uint64_t v) { return v == kEmptyVal; }

  // Enqueue into one ring. False iff the ring is (or became) closed.
  [[gnu::always_inline]] bool push(std::uint64_t v) {
    unsigned tries = 0;
    for (;;) {
      const std::uint64_t traw = tail.fetch_add(1, std::memory_order_seq_cst);
      if (traw & kClosedBit) return false;
      const std::uint64_t t = traw;
      Cell* cell = &cells()[t & (ring_size_ - 1)];
      const std::uint64_t sidx = cell->sidx.load(std::memory_order_acquire);
      const std::uint64_t val = cell->val.load(std::memory_order_acquire);
      const std::uint64_t idx = sidx_idx(sidx);
      // The cell is usable for ticket t when it is empty, still on an
      // earlier round (idx <= t), and either safe or provably not
      // awaited by a dequeuer (head <= t).
      if (val == kEmptyVal && idx <= t &&
          (sidx_safe(sidx) || head.load(std::memory_order_seq_cst) <= t)) {
        if (ring::pair_cas(cell, {kEmptyVal, sidx},
                           {v, pack_sidx(true, t)})) {
          return true;
        }
      }
      // Transition failed. Close when full or starving, else re-FAA.
      const std::uint64_t h = head.load(std::memory_order_seq_cst);
      if (static_cast<std::int64_t>(t - h) >=
              static_cast<std::int64_t>(ring_size_) ||
          ++tries >= kStarvationLimit) {
        tail.fetch_or(kClosedBit, std::memory_order_seq_cst);
        return false;
      }
    }
  }

  // Dequeue from one ring. False iff the ring is observed empty
  // (head caught up with tail; tail repaired via fix_state).
  [[gnu::always_inline]] bool pop(std::uint64_t* out) {
    for (;;) {
      const std::uint64_t h = head.fetch_add(1, std::memory_order_seq_cst);
      Cell* cell = &cells()[h & (ring_size_ - 1)];
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
            if (ring::pair_cas(cell, {val, sidx},
                               {kEmptyVal, pack_sidx(safe, h + ring_size_)})) {
              *out = val;
              return true;
            }
          } else {
            // Value from an older round: mark the cell unsafe so its
            // enqueuer's round cannot be served out of order.
            if (ring::pair_cas(cell, {val, sidx},
                               {val, pack_sidx(false, idx)})) {
              break;
            }
          }
        } else {
          // Empty cell: poison our round so a late enqueuer with
          // ticket h fails its CAS2 and retries elsewhere.
          if (ring::pair_cas(cell, {kEmptyVal, sidx},
                             {kEmptyVal, pack_sidx(safe, h + ring_size_)})) {
            break;
          }
        }
      }
      const std::uint64_t t = tail.load(std::memory_order_seq_cst) & kIdxMask;
      if (t <= h + 1) {
        fix_state();
        return false;
      }
    }
  }

  // Once a successor is linked the ring is closed — but an enqueue may
  // have slipped in between the empty observation and the close. One
  // more dequeue is definitive (Morrison & Afek §3.2).
  bool last_pop(std::uint64_t* v) { return pop(v); }

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head{0};
  // Bit 63 is the closed flag; low bits are the enqueue ticket.
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail{0};
  alignas(detail::kNoFalseSharing) std::atomic<Crq*> next{nullptr};

 private:
  static constexpr std::uint64_t kEmptyVal = ~std::uint64_t{0};
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kIdxMask = kClosedBit - 1;
  // Failed enqueue transitions tolerated before closing the ring: the
  // anti-starvation close of §3.1 (the full-ring test handles the
  // common case; this bounds livelock on repeatedly poisoned cells).
  static constexpr unsigned kStarvationLimit = 4096;

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

  explicit Crq(std::uint64_t ring_size) : ring_size_(ring_size) {}

  static std::size_t bytes(std::uint64_t ring_size) {
    return sizeof(Crq) + ring_size * sizeof(Cell);
  }

  static constexpr std::uint64_t pack_sidx(bool safe, std::uint64_t idx) {
    return (static_cast<std::uint64_t>(safe) << 63) | (idx & kIdxMask);
  }
  static constexpr bool sidx_safe(std::uint64_t s) { return (s >> 63) != 0; }
  static constexpr std::uint64_t sidx_idx(std::uint64_t s) {
    return s & kIdxMask;
  }

  // ring_size_ cells live in trailing storage.
  Cell* cells() { return reinterpret_cast<Cell*>(this + 1); }

  // Head can overrun tail when dequeuers race an emptying ring; CAS
  // tail up to head (keeping the closed bit) so enqueue tickets do
  // not land on already-poisoned rounds forever.
  void fix_state() {
    for (;;) {
      std::uint64_t traw = tail.load(std::memory_order_seq_cst);
      const std::uint64_t h = head.load(std::memory_order_seq_cst);
      if (sidx_idx(traw) >= h) return;  // consistent (or closed-huge)
      if (tail.compare_exchange_strong(traw, (traw & kClosedBit) | h,
                                       std::memory_order_seq_cst,
                                       std::memory_order_seq_cst)) {
        return;
      }
    }
  }

  // Sits in the padding of next's line, so carrying it costs the node
  // no bytes.
  const std::uint64_t ring_size_;
};

using LcrqQueue = RingList<Crq>;

}  // namespace wcq
