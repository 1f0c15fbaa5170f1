// The ring kernel: SCQ's bounded FIFO of small indices (Nikolaev,
// DISC 2019) as a composition of the layer headers —
//
//   ring_math.hpp     Geometry (cycle/index packing) + Remap
//                     (Cache_Remap / identity position permutation)
//   ring_entry.hpp    entry codecs (plain word vs {word, note} pair)
//   ring_policy.hpp   empty detection (ScqThreshold vs NoThreshold)
//   ring_noted.hpp    the wCQ helping/note layer — out-of-line
//                     definitions of the members declared here under
//                     requires(Noted); only wcq.hpp includes it
//
// A ring of 2n entries backs a queue of capacity n; Head/Tail are
// FAA'd position counters whose quotient by the ring size is the
// entry's expected "cycle". The `threshold` counter gives dequeuers a
// constant-time empty exit, and Cache_Remap spreads consecutive
// positions across cache lines.
//
// Instantiations sharing the state machine:
//
//   ScqRingT<false>        ("ScqRing")  64-bit entries, lock-free —
//       plain SCQ, and the building block of ScqQueue's aq/fq pair.
//   ScqRingT<true>         ("WcqRing")  128-bit {word, note} entries
//       mutated by CAS2 — the wCQ ring (SPAA 2022, Figures 4-7). The
//       second word parks *notes*: revocable claims and committed
//       results of the cooperative slow path, so that any number of
//       helpers can advance one stalled operation and the commit still
//       happens exactly once (the CAS2 that flips a claim note to its
//       phase-B form is the only way the entry word changes while
//       claimed).
//   ScqRingT<true, false, true>  the same ring with every CAS2 on the
//       portable __atomic path (WcqPortableQueue, the §4 build).
//   ScqRingT<false, true>  ("FinalScqRing")  plain SCQ plus a closed
//       bit in Tail: once close() is called no new enqueue ticket is
//       issued, and drain_idx() sweeps the surviving tickets so an
//       LSCQ segment can be proven sterile before it is retired to
//       SMR. For non-finalizable instantiations every closed-bit
//       branch folds away and the generated code is the plain ring's.
//
// Word layout (64 bits):   [ cycle | is_safe (1 bit) | index ]
// where index occupies order+1 bits and all-ones means "empty" (BOT).
//
// Slow-path lifecycle of one request (RingRequest, one per thread):
//   Pending   helpers scan from req.pos; an eligible entry is *claimed*
//             with a phase-A note (word unchanged, now frozen: every
//             word mutation is a CAS2 expecting note == 0).
//   Phase2    the unique winner of the Pending->Phase2 ctl CAS names
//             the committing slot j; claims parked anywhere else are
//             revoked. Any helper then *commits* at j: one CAS2 flips
//             the phase-A note to phase-B and applies the word change
//             (install for enqueue, consume for dequeue).
//   DoneOk    any helper seeing the phase-B note delivers the result
//             (dequeue: the index rides in the note) and finalizes the
//             ctl; the note is then retired by one CAS2.
//   DoneEmpty dequeue-only: the threshold ran out first. Outstanding
//             phase-A claims are revoked lazily by whoever touches
//             them — a claim never changed the entry word, so revoking
//             is always safe, even for notes of long-dead requests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/ring_policy.hpp"

namespace wcq {

// Published state of one in-flight slow-path ring operation. Owned by
// one thread record, read and CAS-advanced by every helper.
struct alignas(detail::kNoFalseSharing) RingRequest {
  std::atomic<std::uint64_t> ctl{0};     // packed seq/j/ring/kind/state
  std::atomic<std::uint64_t> arg{0};     // enqueue: index to insert
  std::atomic<std::uint64_t> result{0};  // dequeue: index obtained
  std::atomic<std::uint64_t> pos{0};     // shared scan position; dequeue
                                         // advances it in lockstep with
                                         // the global Head ticket stream
};

template <bool Noted, bool Finalizable = false, bool Portable = false>
class ScqRingT {
  // The noted ring is the queue-level wCQ ring; segment finalization
  // belongs to plain rings inside LSCQ. Nothing needs both. Portable
  // picks the CAS2 path, which only the noted ring has.
  static_assert(!(Noted && Finalizable) && (Noted || !Portable));

 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,      // definitive: queue observed empty (threshold spent)
    kContended = 2,  // patience exhausted; retry or go to a slow path
    kClosed = 3,     // Finalizable only: ring closed, no ticket issued
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // Capacity is 2^order indices; the ring itself has 2^(order+1)
  // entries. `remap` toggles Cache_Remap. `reqs` is the queue's
  // RingRequest array, which notes reference by slot; required iff
  // Noted. `is_fq` is the ring's identity bit in request ctl words
  // (0 = free-index ring aq, 1 = value ring fq), so helpers never step
  // a request against the wrong ring.
  ScqRingT(unsigned order, bool remap, RingRequest* reqs = nullptr,
           bool is_fq = false)
      : geo_(order),
        remap_(remap ? ring::Remap::cache(geo_, kLineBits)
                     : ring::Remap::identity(geo_)),
        reqs_(reqs),
        is_fq_(is_fq),
        threshold_(geo_) {
    entries_ = static_cast<Entry*>(
        mem::alloc(geo_.ring_size() * sizeof(Entry)));
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      entries_[j].word.store(geo_.pack(0, true, geo_.bot()),
                             std::memory_order_relaxed);
      if constexpr (Noted) {
        entries_[j].note.store(0, std::memory_order_relaxed);
      }
    }
    // Start positions at ring_size so live cycles begin at 1 and are
    // always distinguishable from the zero-initialised entries.
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size(), std::memory_order_relaxed);
  }

  ~ScqRingT() { mem::free(entries_, geo_.ring_size() * sizeof(Entry)); }

  ScqRingT(const ScqRingT&) = delete;
  ScqRingT& operator=(const ScqRingT&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  std::uint64_t head() const { return head_.load(std::memory_order_seq_cst); }
  std::uint64_t tail() const {
    return tail_pos(tail_.load(std::memory_order_seq_cst));
  }

  // Enqueue an index in [0, capacity). As long as at most `capacity`
  // indices are live the ring always has room, so the only non-kOk
  // outcome is kContended when `max_iters` attempts are spent (or
  // kClosed once a finalizable ring is closed).
  Result enqueue_idx(std::uint64_t eidx, std::uint64_t max_iters) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      if constexpr (Finalizable) {
        // Cheap pre-check; the FAA below is the authoritative one.
        if (tail_.load(std::memory_order_seq_cst) & kClosedBit) {
          return kClosed;
        }
      }
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
      if constexpr (Finalizable) {
        if (t & kClosedBit) return kClosed;
      }
      const std::uint64_t tcycle = geo_.cycle_of_pos(t);
      const std::uint64_t j = remap_.map(t);
      for (;;) {
        const std::uint64_t e =
            entries_[j].word.load(std::memory_order_acquire);
        if (geo_.cycle_of_entry(e) < tcycle &&
            geo_.idx_of_entry(e) == geo_.bot() &&
            (geo_.is_safe(e) ||
             head_.load(std::memory_order_seq_cst) <= t)) {
          if (!word_cas(j, e, geo_.pack(tcycle, true, eidx))) {
            if constexpr (Noted) {
              // A parked note freezes the word; resolve it, then retry.
              const std::uint64_t n =
                  entries_[j].note.load(std::memory_order_acquire);
              if (n != 0) help_note(j, n);
            }
            continue;  // entry changed under us; re-evaluate
          }
          threshold_.arm();
          return kOk;
        }
        break;  // position unusable, take the next one
      }
    }
    return kContended;
  }

  // Dequeue an index. kEmpty is definitive (threshold exhausted or
  // tail caught up); kContended means patience ran out first.
  Result dequeue_idx(std::uint64_t* out, std::uint64_t max_iters) {
    if (threshold_.spent()) {
      return kEmpty;  // the paper's fast empty exit (Figure 11a)
    }
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = remap_.map(h);
      bool advanced = false;
      bool consumed_by_peer = false;
      for (;;) {
        const std::uint64_t e =
            entries_[j].word.load(std::memory_order_acquire);
        const std::uint64_t ecycle = geo_.cycle_of_entry(e);
        if (ecycle == hcycle && geo_.idx_of_entry(e) != geo_.bot()) {
          if (!consume(j, e)) {
            if constexpr (Noted) {
              // Claimed by a slow-path request sharing this position:
              // help it through; the value goes to the request and the
              // re-read will see a consumed entry (our ticket is spent).
              const std::uint64_t n =
                  entries_[j].note.load(std::memory_order_acquire);
              if (n != 0) help_note(j, n);
            }
            continue;
          }
          *out = geo_.idx_of_entry(e);
          return kOk;
        }
        if (ecycle < hcycle) {
          // Either advance an empty entry's cycle or mark a lagging
          // value unsafe so a slow enqueuer cannot resurrect it.
          const std::uint64_t fresh =
              geo_.idx_of_entry(e) == geo_.bot()
                  ? geo_.pack(hcycle, geo_.is_safe(e), geo_.bot())
                  : geo_.pack(ecycle, false, geo_.idx_of_entry(e));
          if (!word_cas(j, e, fresh)) {
            if constexpr (Noted) {
              const std::uint64_t n =
                  entries_[j].note.load(std::memory_order_acquire);
              if (n != 0) help_note(j, n);
            }
            continue;
          }
        }
        // ecycle == hcycle with BOT and ecycle > hcycle both land
        // here. A cleared safe bit at exactly our cycle is the slow
        // path's consume marker: our ticket's value went to a request
        // (which never held a head ticket for it), so the position
        // *did* yield a value and must not be accounted as failed —
        // in SCQ a value-yielding ticket never decrements threshold.
        if constexpr (Noted) {
          consumed_by_peer = ecycle == hcycle &&
                             geo_.idx_of_entry(e) == geo_.bot() &&
                             !geo_.is_safe(e);
        }
        advanced = true;
        break;
      }
      if (advanced) {
        const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
        if (tail_pos(t) <= h + 1) {
          catchup(t, h + 1);
          threshold_.spend();
          return kEmpty;
        }
        if (!consumed_by_peer && threshold_.spend()) {
          return kEmpty;
        }
      }
    }
    return kContended;
  }

  // ---- segment finalization (Finalizable only) ----------------------

  // Close the ring: every enqueue ticket issued from now on aborts
  // with kClosed before touching an entry. Idempotent.
  void close()
    requires(Finalizable)
  {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
  }

  bool closed() const
    requires(Finalizable)
  {
    return (tail_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
  }

  // Post-close sweep. Burns head tickets past every position a
  // pre-close enqueue ticket could still install at, bypassing the
  // threshold (which may be spent while such installs are in flight).
  // kOk hands out a surviving value; kEmpty is a *sterility*
  // certificate: head has met tail, every pre-close ticket's position
  // was consumed or poisoned, and no install can land here anymore —
  // the ring may be retired. Callers loop on kOk.
  Result drain_idx(std::uint64_t* out)
    requires(Finalizable)
  {
    for (;;) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = remap_.map(h);
      for (;;) {
        const std::uint64_t e =
            entries_[j].word.load(std::memory_order_acquire);
        const std::uint64_t ecycle = geo_.cycle_of_entry(e);
        if (ecycle == hcycle && geo_.idx_of_entry(e) != geo_.bot()) {
          if (!consume(j, e)) continue;
          *out = geo_.idx_of_entry(e);
          return kOk;
        }
        if (ecycle < hcycle) {
          // Advance-or-poison, exactly as a dequeuer would: once the
          // cycle moves past a pre-close ticket's target (or the safe
          // bit drops), its install CAS can no longer succeed.
          const std::uint64_t fresh =
              geo_.idx_of_entry(e) == geo_.bot()
                  ? geo_.pack(hcycle, geo_.is_safe(e), geo_.bot())
                  : geo_.pack(ecycle, false, geo_.idx_of_entry(e));
          if (!word_cas(j, e, fresh)) continue;
        }
        break;
      }
      const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
      if (tail_pos(t) <= h + 1) {
        catchup(t, h + 1);
        return kEmpty;
      }
    }
  }

  // ---- cooperative slow path (Noted only) ---------------------------
  // Defined out-of-line in ring_noted.hpp (included by wcq.hpp): drive
  // `r`'s published operation until its state leaves {Pending, Phase2}.
  // The owner and any number of helpers run this concurrently; every
  // step is a CAS on shared state, so all of them make progress on the
  // *same* request — nobody claims it exclusively.
  void help_slow(RingRequest* r)
    requires(Noted);

 private:
  using Entry = std::conditional_t<Noted, ring::NotedEntry, ring::PlainEntry>;

  static constexpr unsigned kLineBits =
      detail::log2_pow2(detail::kCacheLine / sizeof(Entry));

  // Bit 63 of tail_ is the Finalizable closed flag; positions are the
  // low 63 bits. Non-finalizable rings never set it, and tail_pos is
  // the identity for them.
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  static constexpr std::uint64_t tail_pos(std::uint64_t t) {
    if constexpr (Finalizable) {
      return t & ~kClosedBit;
    } else {
      return t;
    }
  }

  // Word-only CAS. In the noted ring every plain word mutation expects
  // note == 0, which is what freezes a claimed entry.
  bool word_cas(std::uint64_t j, std::uint64_t expected,
                std::uint64_t desired) {
    if constexpr (Noted) {
      return pair_cas(j, {expected, 0}, {desired, 0});
    } else {
      std::uint64_t e = expected;
      return entries_[j].word.compare_exchange_strong(
          e, desired, std::memory_order_acq_rel, std::memory_order_acquire);
    }
  }

  bool pair_cas(std::uint64_t j, detail::Pair expected, detail::Pair desired)
    requires(Noted)
  {
    return ring::pair_cas<Portable>(&entries_[j], expected, desired);
  }

  // Mark the entry consumed (index -> BOT) keeping cycle and safe bit.
  // Returns false when the entry moved (noted ring: possibly because a
  // note is parked on it) — the caller re-evaluates.
  bool consume(std::uint64_t j, std::uint64_t seen) {
    if constexpr (Noted) {
      return word_cas(j, seen, seen | geo_.bot());
    } else {
      entries_[j].word.fetch_or(geo_.bot(), std::memory_order_acq_rel);
      return true;
    }
  }

  void catchup(std::uint64_t t, std::uint64_t h) {
    // The CAS keeps the closed bit exactly as read; only the position
    // half of tail_ moves.
    while (!tail_.compare_exchange_weak(
        t, Finalizable ? (h | (t & kClosedBit)) : h,
        std::memory_order_seq_cst, std::memory_order_seq_cst)) {
      h = head_.load(std::memory_order_seq_cst);
      t = tail_.load(std::memory_order_seq_cst);
      if (tail_pos(t) >= h) break;
    }
  }

  // CAS-max a position counter forward; bounded because every failure
  // means someone else advanced it.
  static void bump(std::atomic<std::uint64_t>& ctr, std::uint64_t target) {
    std::uint64_t c = ctr.load(std::memory_order_seq_cst);
    while (c < target &&
           !ctr.compare_exchange_weak(c, target, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
    }
  }

  // ---- note resolution (Noted only) ---------------------------------
  // Declared here, defined out-of-line in ring_noted.hpp — the helping
  // layer only the wCQ instantiation pulls in.

  std::uint64_t slot_of(const RingRequest* r) const {
    return static_cast<std::uint64_t>(r - reqs_);
  }

  void help_note(std::uint64_t j, std::uint64_t n)
    requires(Noted);
  void commit(RingRequest* r, std::uint64_t j, std::uint64_t n,
              std::uint64_t w)
    requires(Noted);
  void finalize(RingRequest* r, std::uint64_t c, std::uint64_t j,
                std::uint64_t n)
    requires(Noted);
  void step_dequeue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  void step_enqueue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  bool advance_pos(RingRequest* r, std::uint64_t p, std::uint64_t target)
    requires(Noted);
  void try_finalize_empty(RingRequest* r, std::uint64_t c)
    requires(Noted);

  const ring::Geometry geo_;
  const ring::Remap remap_;
  RingRequest* const reqs_;
  const bool is_fq_;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::ScqThreshold threshold_;
  alignas(detail::kNoFalseSharing) Entry* entries_ = nullptr;
};

using ScqRing = ScqRingT<false>;
using WcqRing = ScqRingT<true>;
// LSCQ's segment value ring: plain SCQ plus close()/drain_idx().
using FinalScqRing = ScqRingT<false, true>;

}  // namespace wcq
