// The helping/note layer of the ring kernel — out-of-line definitions
// of every ScqRingT member constrained by requires(Noted). Only the
// wCQ instantiation pulls this in (via wcq.hpp); SCQ-family rings
// compile against scq_ring.hpp alone and never instantiate these.
//
// See the slow-path lifecycle comment at the top of scq_ring.hpp for
// the Pending -> Phase2 -> DoneOk/DoneEmpty protocol these steps
// implement (SPAA 2022, Figures 4-7). Every note change here is a
// pair_cas, which keeps the word's noted bit equal to note != 0; words
// are decoded without that bit (word_at, or a mask on a raw load whose
// value a CAS2 then expects as read).
#pragma once

#include <atomic>
#include <cstdint>

#include "wcq/detail.hpp"
#include "wcq/scq_ring.hpp"

namespace wcq {

// Drive `r`'s published operation until its state leaves
// {Pending, Phase2}. The owner and any number of helpers run this
// concurrently; every step is a CAS on shared state, so all of them
// make progress on the *same* request — nobody claims it exclusively.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::help_slow(RingRequest* r)
  requires(Noted)
{
  for (;;) {
    const std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    const std::uint64_t st = detail::ctl_state(c);
    if (st != detail::kReqPending && st != detail::kReqPhase2) {
      return;  // done (or already reused)
    }
    if (detail::ctl_fq(c) != is_fq_) return;  // request moved rings
    if (st == detail::kReqPhase2) {
      // Commit slot decided: converge on j until the note retires.
      const std::uint64_t j = detail::ctl_j(c);
      const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
      if (n != 0) {
        help_note(j, n);
      } else {
        detail::cpu_pause();  // read skew; the ctl re-load resolves it
      }
      continue;
    }
    if (detail::ctl_deq(c)) {
      step_dequeue(r, c);
    } else {
      step_enqueue(r, c);
    }
  }
}

// Resolve whatever note is parked at slot j: advance the owning
// request one step (commit decision, commit, result delivery) or
// clear the note if its request is over. Callers loop; every call
// makes global progress or observes someone else's.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::help_note(std::uint64_t j,
                                                       std::uint64_t n)
  requires(Noted)
{
  RingRequest* r = &reqs_[detail::note_slot(n)];
  const std::uint64_t c = r->ctl.load(std::memory_order_acquire);
  // Raw, noted bit included: every CAS2 below expects the word as read.
  const std::uint64_t w = entries_[j].word.load(std::memory_order_acquire);
  if (!detail::note_matches_ctl(n, c)) {
    // Stale note of a finished request. Phase-A never changed the
    // word, and a phase-B note's result was delivered before its
    // owner could retire the request, so clearing is always safe.
    pair_cas(j, {w, n}, {w, 0});
    return;
  }
  const std::uint64_t st = detail::ctl_state(c);
  if (st == detail::kReqPending) {
    // A claim exists but no commit slot is decided: propose this one.
    // Exactly one Pending->Phase2 transition per seq ever succeeds.
    if (!detail::note_phase_b(n)) {
      std::uint64_t expc = c;
      r->ctl.compare_exchange_strong(
          expc, detail::ctl_with(c, j, detail::kReqPhase2),
          std::memory_order_acq_rel, std::memory_order_acquire);
    }
    return;
  }
  if (st == detail::kReqPhase2) {
    if (detail::ctl_j(c) != j) {
      // A claim that lost the commit decision: revoke it.
      if (!detail::note_phase_b(n)) pair_cas(j, {w, n}, {w, 0});
      return;
    }
    if (!detail::note_phase_b(n)) {
      commit(r, j, n, w);
    } else {
      finalize(r, c, j, n);
    }
    return;
  }
  // Terminal state (DoneOk / DoneEmpty): phase-B notes are retired,
  // phase-A claims revoked — both are "clear the note, keep the word".
  pair_cas(j, {w, n}, {w, 0});
}

// Apply the committed operation at slot j and publish it.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::commit(
    RingRequest* r, std::uint64_t j, std::uint64_t n, std::uint64_t w)
  requires(Noted)
{
  std::uint64_t cycle = 0;
  if (commit_word(r, j, n, w, &cycle)) {
    publish_commit(detail::note_deq(n), j, cycle);
  }
}

// The commit's CAS2: it flips the phase-A claim n to phase-B and
// performs the word change. Exactly one such CAS2 can succeed; racing
// helpers fail benignly and re-read. True iff this call's succeeded,
// with the entry's cycle, now frozen under the phase-B note, in *cycle.
template <typename Entry, bool Finalizable, bool Portable>
bool ScqRingT<Entry, Finalizable, Portable>::commit_word(
    RingRequest* r, std::uint64_t j, std::uint64_t n, std::uint64_t w,
    std::uint64_t* cycle)
  requires(Noted)
{
  const std::uint64_t slot = detail::note_slot(n);
  const std::uint64_t seq = detail::note_seq(n);
  const std::uint64_t wc = geo_.cycle_of_entry(w & ~kNotedBit);
  if (detail::note_deq(n)) {
    // Consume: the index rides into the phase-B note so the result
    // survives even if this helper stalls right after the CAS2. The
    // safe bit is cleared so the word is distinguishable from an
    // empty close at the same cycle: the fast dequeuer whose head
    // ticket maps here must see that its position yielded a value
    // (to the request) and skip the threshold decrement.
    const std::uint64_t x = detail::note_aux(n);
    *cycle = wc;
    return pair_cas(j, {w, n},
                    {geo_.pack(wc, false, geo_.bot()),
                     detail::pack_note(true, true, slot, seq, x)});
  }
  // Install: reconstruct the claim's target cycle from its low bits
  // (the claim guaranteed the gap to the frozen word's cycle fits).
  const std::uint64_t low = detail::note_aux(n);
  std::uint64_t tcycle = (wc & ~detail::kNoteAuxMask) | low;
  if (tcycle <= wc) tcycle += detail::kNoteAuxMask + 1;
  const std::uint64_t eidx = r->arg.load(std::memory_order_acquire);
  *cycle = tcycle;
  return pair_cas(j, {w, n},
                  {geo_.pack(tcycle, true, eidx),
                   detail::pack_note(true, false, slot, seq, eidx)});
}

// Publish a commit at slot j whose entry is at `cycle`: a consume moves
// Head past its position; an install arms the threshold and moves Tail
// past its position, so that the value sits below Tail as every fast
// install's does. The CAS2's winner runs it, and so does every
// finalize() of an install (before DoneOk), because the winner may
// stall between its CAS2 and this.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::publish_commit(
    bool deq, std::uint64_t j, std::uint64_t cycle)
  requires(Noted)
{
  const std::uint64_t next = geo_.pos_of(cycle, geo_.unmap(j)) + 1;
  if (deq) {
    bump(head_, next);
    return;
  }
  threshold_.arm();
  bump(tail_, next);
}

// Deliver the result and finalize the ctl, then retire the phase-B
// note. Every step is idempotent-by-CAS; any helper may run it. The
// result CAS is seq-tagged so a finalizer that stalled here for a
// whole operation lifetime cannot clobber a successor's result.
//
// An install is published before DoneOk: the owner returns once the
// ctl is terminal, and its value must by then sit below Tail with the
// threshold armed, or a dequeuer could answer empty past it. While the
// phase-B note n is parked the entry word is frozen at the committed
// one, so the word read before a note read that still finds n names
// the committed cycle. A note found gone may be skipped: a phase-B note
// is retired only after DoneOk, by which time some finalizer published.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::finalize(
    RingRequest* r, std::uint64_t c, std::uint64_t j, std::uint64_t n)
  requires(Noted)
{
  const std::uint64_t seq = detail::ctl_seq(c);
  if (detail::ctl_deq(c)) {
    std::uint64_t expr = detail::pack_result(seq, detail::kResultNone);
    r->result.compare_exchange_strong(
        expr, detail::pack_result(seq, detail::note_aux(n)),
        std::memory_order_acq_rel, std::memory_order_acquire);
  } else {
    const std::uint64_t installed =
        entries_[j].word.load(std::memory_order_acquire);
    if (entries_[j].note.load(std::memory_order_acquire) == n) {
      publish_commit(false, j, geo_.cycle_of_entry(installed & ~kNotedBit));
    }
  }
  // Result is in place (by us or a sibling) before the ctl goes
  // terminal, so the owner can read it with a single load.
  std::uint64_t expc = c;
  r->ctl.compare_exchange_strong(expc,
                                 detail::ctl_with(c, j, detail::kReqDoneOk),
                                 std::memory_order_acq_rel,
                                 std::memory_order_acquire);
  // Ctl is now terminal (by us or a sibling); retire the note. A
  // failed CAS just leaves the now-stale note for any toucher.
  const std::uint64_t w = entries_[j].word.load(std::memory_order_acquire);
  pair_cas(j, {w, n}, {w, 0});
}

// One Pending-state step of a slow dequeue: claim a value, account
// an empty position, or finalize empty.
//
// Threshold accounting rides on the *global* head ticket stream, as
// in the paper: a spent scan position decrements threshold only via
// a successful CAS of head_ from p to p+1, which takes ticket p for
// this request exactly the way a fast dequeuer's FAA would. FAA and
// CAS serialize on head_, so every ticket has one owner and hence at
// most one decrement — no matter how many slow requests scan the
// same positions concurrently (their head CASes for a shared p all
// lose but one) and no matter how many fast dequeuers interleave
// (a ticket the FAA stream took makes our CAS fail, and its holder
// is the accountant). A stalled helper never blocks accounting: the
// head CAS is attempted by every helper at p before the pos advance,
// and the one success is itself the idempotence token.
//
// The scan never passes Head: it starts there, and it leaves p only
// once ticket p is taken (by its CAS, or Head had already passed p),
// for Head itself or p + 1. That keeps SCQ's rule for enqueues sound:
// an unsafe entry at p takes an install only while Head <= p, i.e.
// while no dequeuer has passed p. A scan that ran ahead of Head could
// close positions and later commit a claim beyond them, and the
// commit's Head bump would then jump over values installed behind it.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::step_dequeue(RingRequest* r,
                                                          std::uint64_t c)
  requires(Noted)
{
  if (threshold_.spent()) {
    try_finalize_empty(r, c);
    return;
  }
  std::atomic<std::uint64_t>& pos = r->pos[is_fq_][1];
  std::uint64_t p = pos.load(std::memory_order_acquire);
  const std::uint64_t pcycle = geo_.cycle_of_pos(p);
  const std::uint64_t j = geo_.map(p);
  const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
  if (n != 0) {
    help_note(j, n);  // ours: drives the commit decision; foreign: unblocks
    return;
  }
  std::uint64_t w = word_at(j);
  const std::uint64_t ec = geo_.cycle_of_entry(w);
  const bool empty = geo_.idx_of_entry(w) == geo_.bot();
  if (ec == pcycle && !empty) {
    // Claim the value: word frozen, index recorded in the note.
    pair_cas(j, {w, 0},
             {w, detail::pack_note(false, true, slot_of(r),
                                   detail::ctl_seq(c),
                                   geo_.idx_of_entry(w))});
    return;
  }
  // The cleared safe bit at our cycle marks a slow-path consume: that
  // position yielded a value, so even if we end up owning its ticket
  // (the committer may have stalled before bumping head_) it must not
  // be accounted as a failed position.
  const bool consumed_here = ec == pcycle && empty && !geo_.is_safe(w);
  if (ec < pcycle) {
    const std::uint64_t fresh =
        empty ? geo_.pack(pcycle, geo_.is_safe(w), geo_.bot())
              : geo_.pack(ec, false, geo_.idx_of_entry(w));
    if (!word_cas(j, w, fresh)) return;
  }
  // Position p is spent at pcycle: closed just now, already closed at
  // our cycle, or past it (ec > pcycle). A helper whose request has
  // finished must not take a ticket for it (see settle_lagging); the
  // ctl check narrows that window to the next few instructions.
  if (r->ctl.load(std::memory_order_acquire) != c) return;
  std::uint64_t h = p;
  if (head_.compare_exchange_strong(h, p + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    // Ticket p is ours. Marking a lagging value unsafe keeps enqueues
    // out of p only once Head > p, which this CAS just made true: settle
    // p first, and if something landed there, revisit p unaccounted.
    if (ec < pcycle && !empty && !settle_lagging(j, pcycle)) return;
    // Ticket p yielded nothing: the fast path's rules.
    if (!consumed_here && (catch_tail_up(p) || threshold_.spend())) {
      try_finalize_empty(r, c);
    }
    h = p + 1;
  }
  // Ticket p accounted (by us, a sibling helper, or the holder that
  // head_'s FAA stream gave it to). The scan moves on to h, never past
  // Head: h is p + 1 after our CAS, else the Head our failed CAS saw.
  pos.compare_exchange_strong(p, h, std::memory_order_acq_rel,
                              std::memory_order_acquire);
}

// After a slow dequeue took ticket p for a position whose entry held a
// lagging value it marked unsafe: whether p is now closed for pcycle.
// Between that mark and the ticket, the lagging value may have been
// consumed and an enqueue may have passed `safe || head <= p` — an
// install that has landed or may still land. So an entry the lagging
// value has left is closed here by advancing its cycle, as a fast
// dequeuer holding ticket p would; a parked note or a value at pcycle
// returns false, and the request's next step finds it. A lagging value
// still there keeps p closed now that Head > p.
template <typename Entry, bool Finalizable, bool Portable>
bool ScqRingT<Entry, Finalizable, Portable>::settle_lagging(
    std::uint64_t j, std::uint64_t pcycle)
  requires(Noted)
{
  std::uint64_t w = entries_[j].word.load(std::memory_order_acquire);
  for (;;) {
    if ((w & kNotedBit) != 0) return false;
    const std::uint64_t ec = geo_.cycle_of_entry(w);
    const bool empty = geo_.idx_of_entry(w) == geo_.bot();
    // At pcycle, an empty entry is closed unless its cleared safe bit
    // marks a slow-path consume: a value did land; revisit p.
    if (ec >= pcycle) return ec > pcycle || (empty && geo_.is_safe(w));
    if (!empty) return !geo_.is_safe(w);
    if (word_cas(j, w, geo_.pack(pcycle, geo_.is_safe(w), geo_.bot()))) {
      return true;
    }
  }
}

// One Pending-state step of a slow enqueue: claim an eligible empty
// entry or advance the scan. Never finalizes empty — both rings of
// the queue construction have guaranteed room for their index.
template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::step_enqueue(RingRequest* r,
                                                          std::uint64_t c)
  requires(Noted)
{
  std::atomic<std::uint64_t>& pos = r->pos[is_fq_][0];
  std::uint64_t p = pos.load(std::memory_order_acquire);
  const std::uint64_t pcycle = geo_.cycle_of_pos(p);
  const std::uint64_t j = geo_.map(p);
  const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
  if (n != 0) {
    help_note(j, n);
    return;
  }
  std::uint64_t w = word_at(j);
  const std::uint64_t ec = geo_.cycle_of_entry(w);
  if (ec < pcycle && geo_.idx_of_entry(w) == geo_.bot() &&
      (geo_.is_safe(w) || head_.load(std::memory_order_seq_cst) <= p)) {
    if (pcycle - ec > detail::kNoteAuxMask) {
      // Ancient entry: the claim's aux bits could not reconstruct
      // the target cycle unambiguously. Normalize first (advancing
      // an empty entry's cycle is what dequeuers do all the time).
      word_cas(j, w, geo_.pack(pcycle - 1, geo_.is_safe(w), geo_.bot()));
      return;
    }
    // Claim: word frozen, target cycle's low bits recorded.
    pair_cas(j, {w, 0},
             {w, detail::pack_note(false, false, slot_of(r),
                                   detail::ctl_seq(c),
                                   pcycle & detail::kNoteAuxMask)});
    return;
  }
  std::uint64_t next = p + 1;
  if (ec > pcycle) {
    // Scan fell behind; jump toward the live tail.
    const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
    if (t > next) next = t;
  }
  pos.compare_exchange_strong(p, next, std::memory_order_acq_rel,
                              std::memory_order_acquire);
}

template <typename Entry, bool Finalizable, bool Portable>
void ScqRingT<Entry, Finalizable, Portable>::try_finalize_empty(
    RingRequest* r, std::uint64_t c)
  requires(Noted)
{
  std::uint64_t expc = c;
  r->ctl.compare_exchange_strong(
      expc, detail::ctl_with(c, 0, detail::kReqDoneEmpty),
      std::memory_order_acq_rel, std::memory_order_acquire);
}

}  // namespace wcq
