// CCQ — the CAS2-based circular queue (Nikolaev, DISC 2019, §1;
// wCQ's Figure 11 family plots). Exactly SCQ's state machine —
// threshold, safe bit, catchup, Cache_Remap — but the entry is a
// {meta, idx} SplitEntry pair mutated by double-width CAS: the index
// is a full 64-bit word instead of being packed beside the cycle.
// CCQ is what you build when indices don't fit the cycle word; SCQ's
// contribution is showing the packing makes CAS2 unnecessary. Keeping
// both in the lineup prices that difference: same protocol, twice the
// entry footprint, and every mutation pays cmpxchg16b.
//
// The ring is the kernel itself (scq_ring.hpp) over the split entry,
// so CCQ and SCQ run one written state machine and differ only in the
// entry codec: meta packs [cycle | is_safe (bit 0)], idx all-ones is
// BOT.
#pragma once

#include "wcq/options.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/scq.hpp"
#include "wcq/scq_ring.hpp"

namespace wcq {

using CcqRing = ScqRingT<ring::SplitEntry>;

// CCQ as a bounded MPMC queue of 64-bit values: scq.hpp's two-ring
// construction over CAS2 rings. Positions and cycles follow SCQ's
// Geometry, so the order ceiling is the same.
class CcqQueue : public TwoRingQueue<CcqRing> {
 public:
  explicit CcqQueue(const options& opt) : TwoRingQueue(opt, "ccq") {}
};

}  // namespace wcq
