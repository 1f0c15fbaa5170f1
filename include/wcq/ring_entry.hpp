// Entry shapes — the storage layer of the ring kernel. ScqRingT takes
// the entry type as its first template parameter and reads and writes
// entries only through its codec (scq_ring.hpp), so everything above
// (cycle arithmetic, threshold, the ticket loops, catch-up) is written
// once and is agnostic to the shape; only wCQ's helping layer needs
// the note:
//
//   PlainEntry   one 64-bit packed word [cycle | safe | index] — SCQ,
//                NCQ, and the LSCQ segment rings.
//   NotedEntry   {word, note} — the wCQ ring. The note word parks
//                revocable claims / committed results of the
//                cooperative slow path; bit 63 of the word mirrors
//                note != 0, so the fast path mutates the word with a
//                single-word CAS and only notes need CAS2.
//   SplitEntry   {meta, idx} mutated together by CAS2 — CCQ, where the
//                index is a full 64-bit word instead of being packed
//                into the cycle word (meta = [cycle | safe]). This is
//                the variant that shows what SCQ's packing buys: CCQ
//                pays double-width CAS for the same state machine, the
//                same written code in the same kernel.
//
// The two-word codecs are accessed both as two separate
// std::atomic<uint64_t> members and, through reinterpret_cast, as one
// detail::Pair for the 16-byte CAS — see the aliasing contract above
// detail::Pair. The static_asserts here pin the layout that contract
// relies on; they lived in scq_ring.hpp before the kernel split.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "wcq/detail.hpp"

namespace wcq::ring {

struct PlainEntry {
  std::atomic<std::uint64_t> word;
};

struct alignas(16) NotedEntry {
  // The noted bit: set in `word` exactly while `note` is nonzero. Only
  // a CAS2 that changes the note writes it (parking sets it, clearing
  // clears it), so an 8-byte word CAS that expects the bit clear
  // succeeds in exactly the states a CAS2 expecting note == 0 would.
  //
  // What it costs: the word keeps [ cycle | safe | index ] below it, so
  // the cycle field shrinks from a plain ring's 62 - order bits (see
  // ring::kMaxOrder) to 61 - order, and cycles wrap at position 2^62
  // instead of 2^63 whatever the order. That is 2^62 Tail or Head FAAs
  // on one ring: about 146 years at 10^9 FAAs per second. A wrapped
  // cycle would carry into this bit, so the wrap must stay out of
  // reach, not merely rare. At detail::kMaxNoteOrder (20) 41 cycle
  // bits remain, wider than the 21 low cycle bits an enqueue claim
  // records (detail::kNoteAuxBits), so commit can rebuild its target
  // cycle.
  static constexpr std::uint64_t kNotedBit = std::uint64_t{1} << 63;

  std::atomic<std::uint64_t> word;
  std::atomic<std::uint64_t> note;
};
static_assert(61 - detail::kMaxNoteOrder == 41 &&
                  61 - detail::kMaxNoteOrder > detail::kNoteAuxBits,
              "the noted bit's cycle budget is argued for kMaxNoteOrder 20");
static_assert(sizeof(NotedEntry) == sizeof(detail::Pair),
              "NotedEntry must be layout-interchangeable with Pair");
static_assert(offsetof(NotedEntry, word) == offsetof(detail::Pair, word) &&
              offsetof(NotedEntry, note) == offsetof(detail::Pair, note));

struct alignas(16) SplitEntry {
  std::atomic<std::uint64_t> meta;  // [cycle | is_safe (bit 0)]
  std::atomic<std::uint64_t> idx;   // full-word index; all-ones = BOT
};
static_assert(sizeof(SplitEntry) == sizeof(detail::Pair),
              "SplitEntry must be layout-interchangeable with Pair");
static_assert(offsetof(SplitEntry, meta) == offsetof(detail::Pair, word) &&
              offsetof(SplitEntry, idx) == offsetof(detail::Pair, note));

/// CAS2 over a two-word entry. `Portable` selects, at compile time, the
/// __atomic builtin path (the paper's Section 4 portable-build posture,
/// and the only path TSan can instrument) over native cmpxchg16b.
template <bool Portable = false, typename TwoWordEntry>
inline bool pair_cas(TwoWordEntry* e, detail::Pair expected,
                     detail::Pair desired) {
  detail::Pair* addr = reinterpret_cast<detail::Pair*>(e);
  if constexpr (Portable) {
    return detail::cas2_portable(addr, &expected, desired);
  } else {
    return detail::cas2(addr, &expected, desired);
  }
}

}  // namespace wcq::ring
