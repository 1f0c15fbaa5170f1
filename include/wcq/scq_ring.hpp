// The ring kernel: SCQ's bounded FIFO of small indices (Nikolaev,
// DISC 2019) as a composition of the layer headers —
//
//   ring_math.hpp     Geometry (cycle/index packing and the
//                     Cache_Remap entry layout)
//   ring_entry.hpp    entry shapes (plain word, {word, note} pair,
//                     CCQ's {meta, idx} pair)
//   ring_policy.hpp   empty detection's budget (ScqThreshold)
//   ring_noted.hpp    the wCQ helping/note layer — out-of-line
//                     definitions of the members declared here under
//                     requires(Noted); only wcq.hpp includes it
//
// A ring of 2n entries backs a queue of capacity n; Head/Tail are
// FAA'd position counters whose quotient by the ring size is the
// entry's expected "cycle". Dequeuers have two constant-time empty
// exits ahead of their first Head ticket: a spent `threshold`, and,
// once the threshold has dropped below armed, Tail <= Head (tail_lead,
// which carries the argument). Geometry's Cache_Remap layout spreads
// consecutive positions across cache lines.
//
// What one ticket does lives in one place: enqueue_ticket and
// dequeue_ticket. The single-op loops (enqueue_idx/dequeue_idx), the
// non-finalizable rings' ticket bursts (enqueue_idx_n/dequeue_idx_n:
// one F&A claims up to k tickets, each then visited in order) and
// LSCQ's drain_idx all call them. Each takes its entry's line for
// writing (detail::prefetch_for_write) before it loads the entry.
// enqueue_idx also runs a two-ring stage 2's data access right after
// its first Tail ticket (see there and scq.hpp).
//
// The entry type is the first template parameter, and every entry read
// and write goes through one small codec (pack, cycle_of, is_safe,
// idx_of, bot, word_at, word_cas, consume), so the state machine above
// it is written once for every entry shape. Instantiations:
//
//   ScqRingT<ring::PlainEntry>  ("ScqRing")  64-bit entries, lock-free
//       — plain SCQ, and the building block of ScqQueue's aq/fq pair.
//   ScqRingT<ring::SplitEntry>  ("CcqRing")  128-bit {meta, idx}
//       entries mutated by CAS2 — CCQ (ccq.hpp): the same state machine
//       with the index beside the cycle word instead of packed into it,
//       which prices what SCQ's packing saves.
//   ScqRingT<ring::NotedEntry>  128-bit {word, note} entries — the wCQ
//       ring (SPAA 2022, Figures 4-7). The second word parks *notes*:
//       revocable claims and committed results of the cooperative slow
//       path, so that any number of helpers can advance one stalled
//       operation and the commit still happens exactly once (the CAS2
//       that flips a claim note to its phase-B form is the only way the
//       entry word changes while claimed). Bit 63 of the word, the
//       *noted bit*, mirrors note != 0, so the fast path is SCQ's
//       single-word CAS over 16-byte entries; only the slow path's
//       note changes are CAS2s.
//   ScqRingT<ring::NotedEntry, false, true>  the same ring with every
//       CAS2 on the portable __atomic path (WcqPortableQueue, the §4
//       build): it differs from the native ring only on the slow path
//       where libatomic reports its 16-byte CAS lock-free; elsewhere
//       its fast path keeps a CAS2 (see word_cas).
//   ScqRingT<ring::PlainEntry, true>  ("FinalScqRing")  plain SCQ plus
//       a closed bit in Tail: once close() is called no new enqueue
//       ticket is issued, and drain_idx() sweeps the surviving tickets
//       so an LSCQ segment can be proven sterile before it is retired
//       to SMR. For non-finalizable instantiations every closed-bit
//       branch folds away and the generated code is the plain ring's.
//
// Word layout (64 bits):   [ cycle | is_safe (1 bit) | index ]
// where index occupies order+1 bits and all-ones means "empty" (BOT);
// the noted ring gives the cycle's top bit to the noted bit. The split
// entry keeps [ cycle | is_safe (bit 0) ] in meta and a full-word index
// in idx, all-ones for BOT.
//
// Slow-path lifecycle of one request (RingRequest, one per thread):
//   Pending   helpers scan from req.pos; an eligible entry is *claimed*
//             with a phase-A note (word unchanged but for the noted bit
//             the same CAS2 sets, now frozen: every word mutation is a
//             CAS expecting that bit clear).
//   Phase2    the unique winner of the Pending->Phase2 ctl CAS names
//             the committing slot j; claims parked anywhere else are
//             revoked. Any helper then *commits* at j: one CAS2 flips
//             the phase-A note to phase-B and applies the word change
//             (install for enqueue, consume for dequeue), and its
//             winner publishes it (Head past a consume; threshold armed
//             and Tail past an install).
//   DoneOk    any helper seeing the phase-B note delivers the result
//             (dequeue: the index rides in the note), publishes an
//             install again (the winner may have stalled before it), and
//             only then finalizes the ctl: a push never returns with its
//             value at or above Tail. The note is then retired by one
//             CAS2.
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

template <bool Portable>
struct WcqTestAccess;  // wcq.hpp: the tests' view of a wCQ ring's entries

// Published state of one in-flight slow-path ring operation. Owned by
// one thread record, read and CAS-advanced by every helper.
struct alignas(detail::kNoFalseSharing) RingRequest {
  std::atomic<std::uint64_t> ctl{0};     // packed seq/j/ring/kind/state
  std::atomic<std::uint64_t> arg{0};     // enqueue: index to insert
  std::atomic<std::uint64_t> result{0};  // dequeue: index obtained
  // Shared scan positions, one per ring and kind: pos[fq][deq]. A
  // helper reads ctl, then pos, then CASes pos; by then the owner may
  // have finished the operation and published its next one. With one
  // field per ring and kind, such a stale step only ever moves a
  // position of its own ring and kind, to a target that is still safe
  // there: a dequeue scan never passes its ring's Head, and an enqueue
  // scan may skip any position, as a Tail F&A does.
  std::atomic<std::uint64_t> pos[2][2];
};

template <typename Entry, bool Finalizable = false, bool Portable = false>
class ScqRingT {
  // The entry shape: wCQ's {word, note} pair, whose helping layer
  // (requires(Noted)) lives in ring_noted.hpp, or CCQ's {meta, idx}
  // pair; otherwise SCQ's plain word.
  static constexpr bool Noted = std::is_same_v<Entry, ring::NotedEntry>;
  static constexpr bool Split = std::is_same_v<Entry, ring::SplitEntry>;

  // The noted ring is the queue-level wCQ ring; segment finalization
  // belongs to plain rings inside LSCQ. Nothing needs both. Portable
  // picks the noted ring's CAS2 path; the split ring's CAS2 is always
  // detail::cas2.
  static_assert(!(Noted && Finalizable) && (Noted || !Portable));

 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,      // definitive: threshold spent or Tail <= Head seen
    kContended = 2,  // patience exhausted; retry or go to a slow path
    kClosed = 3,     // Finalizable only: ring closed, no ticket issued
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // Capacity is 2^order indices; the ring itself has 2^(order+1)
  // entries. `full` starts the ring holding indices 0..capacity-1 in
  // order instead of empty. `reqs` is the queue's RingRequest array,
  // which notes reference by slot; required iff Noted. `is_fq` is the
  // ring's identity bit in request ctl words (0 = free-index ring aq,
  // 1 = value ring fq), so helpers never step a request against the
  // wrong ring.
  ScqRingT(unsigned order, bool full, RingRequest* reqs = nullptr,
           bool is_fq = false)
      : geo_(order, sizeof(Entry)),
        reqs_(reqs),
        is_fq_(is_fq),
        threshold_(geo_) {
    entries_ = static_cast<Entry*>(
        mem::alloc(geo_.ring_size() * sizeof(Entry)));
    if constexpr (Portable) {
      cas2_lock_free_ = __atomic_is_lock_free(sizeof(detail::Pair), entries_);
    }
    // Start positions at ring_size so live cycles begin at 1 and are
    // always distinguishable from the zero-initialised entries. A full
    // ring is written as the state `capacity` enqueue_idx calls into
    // the empty ring leave: index i at position ring_size + i (entry
    // map(i), cycle 1, safe), Tail capacity past Head, threshold armed.
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      const std::uint64_t i = geo_.unmap(j);
      const Word e = full && i < geo_.capacity() ? pack(1, true, i)
                                                 : pack(0, true, bot());
      if constexpr (Split) {
        entries_[j].meta.store(e.word, std::memory_order_relaxed);
        entries_[j].idx.store(e.note, std::memory_order_relaxed);
      } else {
        entries_[j].word.store(e, std::memory_order_relaxed);
        if constexpr (Noted) {
          entries_[j].note.store(0, std::memory_order_relaxed);
        }
      }
    }
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size() + (full ? geo_.capacity() : 0),
                std::memory_order_relaxed);
    if (full) threshold_.arm();
  }

  ~ScqRingT() { mem::free(entries_, geo_.ring_size() * sizeof(Entry)); }

  ScqRingT(const ScqRingT&) = delete;
  ScqRingT& operator=(const ScqRingT&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  std::uint64_t head() const { return head_.load(std::memory_order_seq_cst); }
  std::uint64_t tail() const {
    return tail_pos(tail_.load(std::memory_order_seq_cst));
  }

  // Whether the threshold is spent: the definitive empty that
  // dequeue_idx and dequeue_idx_n answer before taking a ticket.
  bool spent() const { return threshold_.spent(); }

  // Enqueue an index in [0, capacity). As long as at most `capacity`
  // indices are live the ring always has room, so the only non-kOk
  // outcome is kContended when `max_iters` attempts are spent (or
  // kClosed once a finalizable ring is closed).
  //
  // `access` is a two-ring stage 2's data access for eidx: a push's
  // value store or a pop's value load. It runs exactly once, right
  // after the first Tail ticket and before any install, so the data
  // slot's miss overlaps the entry's fetch instead of holding back the
  // F&A (a locked RMW waits for every earlier load and store). A ring
  // that answers kClosed on its first attempt never runs it. The ticket
  // publishes nothing, and the install that publishes eidx is an
  // acq_rel CAS after the access; scq.hpp has the whole argument.
  template <typename Access = detail::NoAccess>
  [[gnu::always_inline]] Result enqueue_idx(std::uint64_t eidx,
                                            std::uint64_t max_iters,
                                            Access access = {}) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
      if constexpr (Finalizable) {
        // The F&A alone decides a closed ring; no Tail load precedes it.
        // A ticket taken after close() returns here, before it touches
        // an entry or runs the access, so it never installs, and
        // drain_idx burns its position like any other. close() runs only
        // from LSCQ's last_pop, once the successor is linked, and
        // RingList::try_push moves on when it sees `next`: each push
        // call takes at most one such ticket per segment, so Tail's
        // position stays far below the closed bit (ring_math.hpp).
        if (t & kClosedBit) return kClosed;
      }
      if (iter == 0) access();
      if (enqueue_ticket(t, eidx)) return kOk;
    }
    return kContended;
  }

  // Dequeue an index. kEmpty is definitive (threshold exhausted, Tail
  // seen at or below Head, or Tail caught up); kContended means
  // patience ran out first.
  //
  // Two exits come before the first ticket, both decided by one
  // threshold read. A spent threshold is the paper's (Figure 11a). A
  // threshold below its armed value means some ticket came up fruitless
  // since the last enqueue armed it: the ring is likely empty, so Tail
  // <= Head (tail_lead) answers without a ticket. An armed threshold
  // goes straight to the ticket, which keeps the two contended loads
  // off pops that are likely to find a value.
  [[gnu::always_inline]] Result dequeue_idx(std::uint64_t* out,
                                            std::uint64_t max_iters) {
    const std::int64_t budget = threshold_.level();
    if (ring::ScqThreshold::spent(budget)) {
      return kEmpty;  // the paper's fast empty exit (Figure 11a)
    }
    if (!threshold_.armed(budget) && tail_lead() == 0) return kEmpty;
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      const Ticket got = dequeue_ticket(h, out);
      if (got == Ticket::value) return kOk;
      if (catch_tail_up(h) ||
          (got == Ticket::fruitless && threshold_.spend())) {
        return kEmpty;
      }
    }
    return kContended;
  }

  // ---- ticket bursts (non-finalizable rings) ------------------------
  // One F&A claims k tickets, and each is visited by the same ticket
  // body as in the single-op loops above; only the dequeue burst's
  // threshold accounting differs (see there). A burst has no patience
  // of its own: its k tickets bound it.

  // Enqueue idx[0..k) in order. Each Tail ticket installs the next
  // index not yet placed, or is skipped when its position is unusable.
  // Returns how many were placed, always a prefix of idx; the caller
  // enqueues the rest after the burst, in order.
  //
  // SCQ's 3n-1 threshold bound rests on every outstanding enqueue
  // ticket being held by a caller that still holds an unplaced index,
  // of which there are at most n. After visiting i of its k tickets a
  // burst holds k - i tickets and k - placed >= k - i indices: like k
  // enqueue_idx callers, it never holds more tickets than indices.
  [[gnu::always_inline]] std::size_t enqueue_idx_n(const std::uint64_t* idx,
                                                   std::size_t k)
    requires(!Finalizable)
  {
    if (k == 0) return 0;
    const std::uint64_t t0 = tail_.fetch_add(k, std::memory_order_seq_cst);
    std::size_t placed = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (enqueue_ticket(t0 + i, idx[placed])) ++placed;
    }
    return placed;
  }

  // Dequeue up to k indices into out[0..), in ring order; returns how
  // many arrived. 0 is not a definitive empty: dequeue_idx gives that.
  // k is capped at tail_lead(), so an empty ring costs no tickets.
  // Every claimed Head ticket is visited, never abandoned: a ticket
  // left unvisited would strand a value installed at its position,
  // since Head has passed it.
  //
  // A fruitless ticket catches Tail up as dequeue_idx's does, but
  // spends the threshold only when it did catch Tail up. SCQ's 3n-1
  // budget covers the fruitless tickets visited after an enqueue arms
  // it, and each dequeue_idx caller stops at a spent budget; a burst
  // visits all of its up to kBatchChunk tickets regardless. Spending on
  // each would drain the budget below zero while a value installed
  // past them waits for a ticket nobody holds yet: a false empty for
  // the next dequeuer. A ticket that catches Tail up leaves no such
  // value (every value sits below Tail <= h + 1, where tickets are
  // taken), so its spend is safe.
  [[gnu::always_inline]] std::size_t dequeue_idx_n(std::uint64_t* out,
                                                   std::size_t k)
    requires(!Finalizable)
  {
    if (spent()) return 0;
    const std::uint64_t lead = tail_lead();
    if (lead == 0) return 0;
    if (k > lead) k = lead;
    const std::uint64_t h0 = head_.fetch_add(k, std::memory_order_seq_cst);
    std::size_t got = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (dequeue_ticket(h0 + i, &out[got]) == Ticket::value) {
        ++got;
      } else {
        catch_tail_up(h0 + i);
      }
    }
    return got;
  }

  // ---- segment finalization (Finalizable only) ----------------------

  // Close the ring: every enqueue ticket issued from now on aborts
  // with kClosed before touching an entry. Idempotent.
  void close()
    requires(Finalizable)
  {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
  }

  // Post-close sweep. Burns head tickets past every position a
  // pre-close enqueue ticket could still install at, bypassing the
  // threshold (which may be spent while such installs are in flight).
  // kOk hands out a surviving value; kEmpty is a *sterility*
  // certificate: head has met tail, every pre-close ticket's position
  // was consumed or poisoned, and no install can land here anymore —
  // the ring may be retired. Callers loop on kOk.
  //
  // Each ticket is visited exactly as a dequeuer visits it: once the
  // cycle moves past a pre-close ticket's target (or the safe bit
  // drops), that ticket's install CAS can no longer succeed.
  Result drain_idx(std::uint64_t* out)
    requires(Finalizable)
  {
    for (;;) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      if (dequeue_ticket(h, out) == Ticket::value) return kOk;
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
  friend struct WcqTestAccess<Portable>;

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

  // Bit 63 of the noted ring's entry word, set exactly while a note is
  // parked (see ring::NotedEntry). Plain rings have no such bit.
  static constexpr std::uint64_t kNotedBit =
      Noted ? ring::NotedEntry::kNotedBit : 0;

  // ---- entry codec: every entry read and write of the kernel --------
  // A plain or noted entry is one word that Geometry packs; a split
  // entry is the pair {cycle << 1 | safe, idx}, read as a detail::Pair
  // {meta, idx}. The pure accessors are always inlined, as the ring
  // operations that call them are (codegen_pinned checks both).

  // An entry as read.
  using Word = std::conditional_t<Split, detail::Pair, std::uint64_t>;

  [[gnu::always_inline]] Word pack(std::uint64_t cycle, bool safe,
                                   std::uint64_t idx) const {
    if constexpr (Split) {
      return {(cycle << 1) | static_cast<std::uint64_t>(safe), idx};
    } else {
      return geo_.pack(cycle, safe, idx);
    }
  }
  [[gnu::always_inline]] std::uint64_t cycle_of(Word e) const {
    if constexpr (Split) {
      return e.word >> 1;
    } else {
      return geo_.cycle_of_entry(e);
    }
  }
  [[gnu::always_inline]] bool is_safe(Word e) const {
    if constexpr (Split) {
      return (e.word & 1u) != 0;
    } else {
      return geo_.is_safe(e);
    }
  }
  [[gnu::always_inline]] std::uint64_t idx_of(Word e) const {
    if constexpr (Split) {
      return e.note;
    } else {
      return geo_.idx_of_entry(e);
    }
  }
  // The "empty" index.
  [[gnu::always_inline]] std::uint64_t bot() const {
    if constexpr (Split) {
      return ~std::uint64_t{0};
    } else {
      return geo_.bot();
    }
  }

  // The entry at j, without the noted bit: what the accessors decode
  // and what word_cas expects. A split entry's two words are separate
  // loads, so the pair may be torn. That is benign: every mutation is a
  // CAS2 expecting the whole pair, which a torn snapshot fails, and a
  // decision taken without a CAS depends on meta alone or names a pair
  // that some real state showed within the read window.
  [[gnu::always_inline]] Word word_at(std::uint64_t j) const {
    if constexpr (Split) {
      return {entries_[j].meta.load(std::memory_order_acquire),
              entries_[j].idx.load(std::memory_order_acquire)};
    } else {
      return entries_[j].word.load(std::memory_order_acquire) & ~kNotedBit;
    }
  }

  // Whether word_cas may be the 8-byte CAS. In the noted ring that
  // needs CAS2 to be one hardware instruction (the mixed-width contract,
  // detail::Pair): the inline cmpxchg16b is (kCas2Hardware), and the
  // portable ring's libatomic CAS2 is only where libatomic reports it
  // lock-free on entries_ (cas2_lock_free_).
  bool narrow_word_cas() const {
    return !Noted ||
           (detail::kCas2Hardware && (!Portable || cas2_lock_free_));
  }

  // The entry CAS from `seen`, a word_at value; on failure `seen` holds
  // the entry found. A split entry is CASed whole, by CAS2; the others
  // by their word. `seen` has the noted bit clear, so in the noted
  // ring the CAS fails on every entry a note freezes, exactly as a CAS2
  // expecting note == 0 would. Where the 8-byte CAS would not be atomic
  // against CAS2 (narrow_word_cas), the noted ring keeps that CAS2.
  bool word_cas(std::uint64_t j, Word& seen, Word desired) {
    if constexpr (Split) {
      return detail::cas2(reinterpret_cast<detail::Pair*>(&entries_[j]),
                          &seen, desired);
    } else {
      if constexpr (Noted) {
        if (!narrow_word_cas()) {
          if (pair_cas(j, {seen, 0}, {desired, 0})) return true;
          seen = entries_[j].word.load(std::memory_order_acquire);
          return false;
        }
      }
      return entries_[j].word.compare_exchange_strong(
          seen, desired, std::memory_order_acq_rel, std::memory_order_acquire);
    }
  }

  // CAS2 on the {word, note} pair, and the only writer of the noted
  // bit: the desired word gets it iff the desired note is nonzero, so
  // every CAS2 that parks a note sets it and every one that clears a
  // note clears it. `expected` is the pair as read, bit included.
  bool pair_cas(std::uint64_t j, detail::Pair expected, detail::Pair desired)
    requires(Noted)
  {
    desired.word =
        (desired.word & ~kNotedBit) | (desired.note != 0 ? kNotedBit : 0);
    return ring::pair_cas<Portable>(&entries_[j], expected, desired);
  }

  // After a failed word CAS: a noted bit on the word found means a note
  // freezes the entry; resolve it so the caller's retry can progress.
  void resolve_note(std::uint64_t j, Word seen) {
    if constexpr (Noted) {
      if ((seen & kNotedBit) != 0) {
        const std::uint64_t n =
            entries_[j].note.load(std::memory_order_acquire);
        if (n != 0) help_note(j, n);
      }
    }
  }

  // Mark the entry consumed (index -> BOT) keeping cycle and safe bit.
  // Returns false, with the entry found in `seen`, when the entry moved
  // (noted ring: possibly because a note is parked on it) — the caller
  // re-evaluates. The noted ring CASes where SCQ ORs: an OR would write
  // into a frozen word. The split entry's CAS2 keeps meta as read.
  bool consume(std::uint64_t j, Word& seen) {
    if constexpr (Split) {
      return word_cas(j, seen, {seen.word, bot()});
    } else if constexpr (Noted) {
      return word_cas(j, seen, seen | geo_.bot());
    } else {
      entries_[j].word.fetch_or(geo_.bot(), std::memory_order_acq_rel);
      return true;
    }
  }

  // ---- ticket bodies: what one ticket does, whoever claimed it ------
  // The single-op loops, the bursts and drain_idx all call these. Each
  // prefetches its entry for writing as soon as it knows where it is:
  // the load and the CAS (or SCQ's fetch_or) that follow then cost one
  // coherence transaction, not a shared fill and then an upgrade.

  // Tail ticket t: install eidx at t's position, or report the
  // position unusable (true iff installed).
  [[gnu::always_inline]] bool enqueue_ticket(std::uint64_t t,
                                             std::uint64_t eidx) {
    const std::uint64_t tcycle = geo_.cycle_of_pos(t);
    const std::uint64_t j = geo_.map(t);
    detail::prefetch_for_write(&entries_[j]);
    for (;;) {
      Word e = word_at(j);
      if (cycle_of(e) < tcycle && idx_of(e) == bot() &&
          (is_safe(e) || head_.load(std::memory_order_seq_cst) <= t)) {
        if (!word_cas(j, e, pack(tcycle, true, eidx))) {
          resolve_note(j, e);
          continue;  // entry changed under us; re-evaluate
        }
        threshold_.arm();
        return true;
      }
      return false;  // position unusable
    }
  }

  // What a Head ticket yielded its holder.
  enum class Ticket {
    value,         // the index installed for its cycle, now in *out
    fruitless,     // nothing
    request_took,  // nothing: a slow-path request took its value
  };

  // Head ticket h: consume the index installed for h's cycle, or
  // advance an empty entry's cycle / mark a lagging value unsafe so no
  // enqueue can install at h's position any more.
  [[gnu::always_inline]] Ticket dequeue_ticket(std::uint64_t h,
                                               std::uint64_t* out) {
    const std::uint64_t hcycle = geo_.cycle_of_pos(h);
    const std::uint64_t j = geo_.map(h);
    detail::prefetch_for_write(&entries_[j]);
    for (;;) {
      Word e = word_at(j);
      const std::uint64_t ecycle = cycle_of(e);
      if (ecycle == hcycle && idx_of(e) != bot()) {
        if (!consume(j, e)) {
          // Claimed by a slow-path request sharing this position:
          // help it through; the value goes to the request and the
          // re-read will see a consumed entry (our ticket is spent).
          resolve_note(j, e);
          continue;
        }
        *out = idx_of(e);
        return Ticket::value;
      }
      if (ecycle < hcycle) {
        // Either advance an empty entry's cycle or mark a lagging
        // value unsafe so a slow enqueuer cannot resurrect it.
        const Word fresh = idx_of(e) == bot()
                               ? pack(hcycle, is_safe(e), bot())
                               : pack(ecycle, false, idx_of(e));
        if (!word_cas(j, e, fresh)) {
          resolve_note(j, e);
          continue;
        }
      }
      // ecycle == hcycle with BOT and ecycle > hcycle both land here.
      // A cleared safe bit at exactly our cycle is the slow path's
      // consume marker: our ticket's value went to a request (which
      // never held a head ticket for it), so the position *did* yield
      // a value and must not be accounted as failed — in SCQ a
      // value-yielding ticket never decrements threshold.
      if constexpr (Noted) {
        if (ecycle == hcycle && idx_of(e) == bot() && !is_safe(e)) {
          return Ticket::request_took;
        }
      }
      return Ticket::fruitless;
    }
  }

  // How far Tail leads Head: Head read first, then Tail; 0 when Tail
  // <= Head. A 0 is a definitive empty at the Tail read, the same fact
  // catch_tail_up certifies after a fruitless ticket h (Tail <= h + 1):
  //  - Head and Tail only grow, and Head was read first, so at the Tail
  //    read Tail <= Head;
  //  - every value whose enqueue has finished sits below Tail: a fast
  //    install holds a Tail ticket, and a slow-path install is
  //    published past Tail before its request can finish (finalize);
  //  - so its position p < Tail <= Head already has a Head ticket,
  //    whose holder began before this read; the value goes to it, or
  //    to a slow dequeue whose scan reached p, which also began before
  //    Head passed p (no install lands at p once ticket p is visited).
  // No value that finished arriving is queued at that point without a
  // dequeuer already holding it, and an enqueue still in flight is
  // ordered after the read. The answer is one the first loop iteration
  // of dequeue_idx would give, without its ticket, entry CAS, Tail CAS
  // and threshold decrement.
  [[gnu::always_inline]] std::uint64_t tail_lead() const {
    const std::uint64_t h = head_.load(std::memory_order_seq_cst);
    const std::uint64_t t = tail_pos(tail_.load(std::memory_order_seq_cst));
    return t > h ? t - h : 0;
  }

  // Head ticket h yielded its holder nothing. When Tail is at or below
  // h + 1, the ring holds nothing past h: catch Tail up, spend the
  // threshold, and return true (a definitive empty for dequeue_idx).
  [[gnu::always_inline]] bool catch_tail_up(std::uint64_t h) {
    const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
    if (tail_pos(t) > h + 1) return false;
    catchup(t, h + 1);
    threshold_.spend();
    return true;
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
  bool commit_word(RingRequest* r, std::uint64_t j, std::uint64_t n,
                   std::uint64_t w, std::uint64_t* cycle)
    requires(Noted);
  void publish_commit(bool deq, std::uint64_t j, std::uint64_t cycle)
    requires(Noted);
  void finalize(RingRequest* r, std::uint64_t c, std::uint64_t j,
                std::uint64_t n)
    requires(Noted);
  void step_dequeue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  void step_enqueue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  bool settle_lagging(std::uint64_t j, std::uint64_t pcycle)
    requires(Noted);
  void try_finalize_empty(RingRequest* r, std::uint64_t c)
    requires(Noted);

  const ring::Geometry geo_;
  RingRequest* const reqs_;
  const bool is_fq_;
  // Portable rings only: libatomic's answer, at construction, to
  // whether a 16-byte CAS on entries_ is lock-free.
  bool cas2_lock_free_ = false;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::ScqThreshold threshold_;
  alignas(detail::kNoFalseSharing) Entry* entries_ = nullptr;
};

using ScqRing = ScqRingT<ring::PlainEntry>;
// LSCQ's segment value ring: plain SCQ plus close()/drain_idx().
using FinalScqRing = ScqRingT<ring::PlainEntry, true>;

}  // namespace wcq
