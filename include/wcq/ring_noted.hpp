// The helping/note layer of the ring kernel — out-of-line definitions
// of every ScqRingT member constrained by requires(Noted). Only the
// wCQ instantiation pulls this in (via wcq.hpp); SCQ-family rings
// compile against scq_ring.hpp alone and never instantiate these.
//
// See the slow-path lifecycle comment at the top of scq_ring.hpp for
// the Pending -> Phase2 -> DoneOk/DoneEmpty protocol these steps
// implement (SPAA 2022, Figures 4-7).
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
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::help_slow(RingRequest* r)
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
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::help_note(std::uint64_t j,
                                                       std::uint64_t n)
  requires(Noted)
{
  RingRequest* r = &reqs_[detail::note_slot(n)];
  const std::uint64_t c = r->ctl.load(std::memory_order_acquire);
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

// Apply the committed operation at slot j: one CAS2 flips the
// phase-A claim to phase-B and performs the word change. Exactly one
// such CAS2 can succeed; racing helpers fail benignly and re-read.
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::commit(
    RingRequest* r, std::uint64_t j, std::uint64_t n, std::uint64_t w)
  requires(Noted)
{
  const std::uint64_t slot = detail::note_slot(n);
  const std::uint64_t seq = detail::note_seq(n);
  if (detail::note_deq(n)) {
    // Consume: the index rides into the phase-B note so the result
    // survives even if this helper stalls right after the CAS2. The
    // safe bit is cleared so the word is distinguishable from an
    // empty close at the same cycle: the fast dequeuer whose head
    // ticket maps here must see that its position yielded a value
    // (to the request) and skip the threshold decrement.
    const std::uint64_t x = detail::note_aux(n);
    const std::uint64_t consumed =
        geo_.pack(geo_.cycle_of_entry(w), false, geo_.bot());
    if (pair_cas(j, {w, n},
                 {consumed, detail::pack_note(true, true, slot, seq, x)})) {
      bump(head_,
           geo_.pos_of(geo_.cycle_of_entry(w), remap_.unmap(j)) + 1);
    }
    return;
  }
  // Install: reconstruct the claim's target cycle from its low bits
  // (the claim guaranteed the gap to the frozen word's cycle fits).
  const std::uint64_t low = detail::note_aux(n);
  const std::uint64_t wc = geo_.cycle_of_entry(w);
  std::uint64_t tcycle = (wc & ~detail::kNoteAuxMask) | low;
  if (tcycle <= wc) tcycle += detail::kNoteAuxMask + 1;
  const std::uint64_t eidx = r->arg.load(std::memory_order_acquire);
  if (pair_cas(j, {w, n},
               {geo_.pack(tcycle, true, eidx),
                detail::pack_note(true, false, slot, seq, eidx)})) {
    threshold_.arm();
    bump(tail_, geo_.pos_of(tcycle, remap_.unmap(j)) + 1);
  }
}

// Deliver the result and finalize the ctl, then retire the phase-B
// note. Every step is idempotent-by-CAS; any helper may run it. The
// result CAS is seq-tagged so a finalizer that stalled here for a
// whole operation lifetime cannot clobber a successor's result.
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::finalize(
    RingRequest* r, std::uint64_t c, std::uint64_t j, std::uint64_t n)
  requires(Noted)
{
  const std::uint64_t seq = detail::ctl_seq(c);
  if (detail::ctl_deq(c)) {
    std::uint64_t expr = detail::pack_result(seq, detail::kResultNone);
    r->result.compare_exchange_strong(
        expr, detail::pack_result(seq, detail::note_aux(n)),
        std::memory_order_acq_rel, std::memory_order_acquire);
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
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::step_dequeue(RingRequest* r,
                                                          std::uint64_t c)
  requires(Noted)
{
  if (threshold_.spent()) {
    try_finalize_empty(r, c);
    return;
  }
  const std::uint64_t p = r->pos.load(std::memory_order_acquire);
  const std::uint64_t pcycle = geo_.cycle_of_pos(p);
  const std::uint64_t j = remap_.map(p);
  const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
  if (n != 0) {
    help_note(j, n);  // ours: drives the commit decision; foreign: unblocks
    return;
  }
  const std::uint64_t w = entries_[j].word.load(std::memory_order_acquire);
  const std::uint64_t ec = geo_.cycle_of_entry(w);
  if (ec == pcycle && geo_.idx_of_entry(w) != geo_.bot()) {
    // Claim the value: word frozen, index recorded in the note.
    pair_cas(j, {w, 0},
             {w, detail::pack_note(false, true, slot_of(r),
                                   detail::ctl_seq(c),
                                   geo_.idx_of_entry(w))});
    return;
  }
  if (ec > pcycle) {
    // Our scan position fell behind the ring; jump it forward.
    advance_pos(r, p, head_.load(std::memory_order_seq_cst));
    return;
  }
  if (ec < pcycle) {
    const std::uint64_t fresh =
        geo_.idx_of_entry(w) == geo_.bot()
            ? geo_.pack(pcycle, geo_.is_safe(w), geo_.bot())
            : geo_.pack(ec, false, geo_.idx_of_entry(w));
    if (!word_cas(j, w, fresh)) return;
    // Spent as empty at pcycle; fall through to account ticket p.
  }
  // Position p is spent: closed empty just now, or already at our
  // cycle with BOT. The cleared safe bit marks a slow-path consume —
  // that position yielded a value, so even if we end up owning its
  // ticket (the committer may have stalled before bumping head_) it
  // must not be accounted as a failed position.
  const bool consumed_here =
      ec == pcycle && geo_.idx_of_entry(w) == geo_.bot() && !geo_.is_safe(w);
  std::uint64_t hexp = p;
  if (head_.compare_exchange_strong(hexp, p + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst) &&
      !consumed_here) {
    // Ticket p is ours and yielded nothing: the fast path's rules.
    const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
    if (t <= p + 1) {
      catchup(t, p + 1);
      threshold_.spend();
      try_finalize_empty(r, c);
    } else if (threshold_.spend()) {
      try_finalize_empty(r, c);
    }
  }
  // Ticket p accounted (by us, a sibling helper, or the fast holder
  // head_'s FAA stream gave it to); the scan may move on.
  advance_pos(r, p, p + 1);
}

// One Pending-state step of a slow enqueue: claim an eligible empty
// entry or advance the scan. Never finalizes empty — both rings of
// the queue construction have guaranteed room for their index.
template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::step_enqueue(RingRequest* r,
                                                          std::uint64_t c)
  requires(Noted)
{
  const std::uint64_t p = r->pos.load(std::memory_order_acquire);
  const std::uint64_t pcycle = geo_.cycle_of_pos(p);
  const std::uint64_t j = remap_.map(p);
  const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
  if (n != 0) {
    help_note(j, n);
    return;
  }
  const std::uint64_t w = entries_[j].word.load(std::memory_order_acquire);
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
  advance_pos(r, p, next);
}

template <bool Noted, bool Finalizable, bool Portable>
bool ScqRingT<Noted, Finalizable, Portable>::advance_pos(RingRequest* r,
                                                         std::uint64_t p,
                                                         std::uint64_t target)
  requires(Noted)
{
  if (target <= p) target = p + 1;
  return r->pos.compare_exchange_strong(p, target, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
}

template <bool Noted, bool Finalizable, bool Portable>
void ScqRingT<Noted, Finalizable, Portable>::try_finalize_empty(
    RingRequest* r, std::uint64_t c)
  requires(Noted)
{
  std::uint64_t expc = c;
  r->ctl.compare_exchange_strong(
      expc, detail::ctl_with(c, 0, detail::kReqDoneEmpty),
      std::memory_order_acq_rel, std::memory_order_acquire);
}

}  // namespace wcq
