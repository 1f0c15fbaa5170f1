// The bounded value queue every index ring backs (§2.2): the classic
// two-ring construction. `aq` holds free data slots, `fq` holds filled
// ones; enqueue moves a slot aq -> data -> fq, dequeue moves it back.
// The data array is synchronised by the rings' release/acquire entry
// CASes.
//
// A stage 2 (fq enqueue in a push, aq enqueue in a pop) hands its data
// access to the ring: enqueue_idx runs it once, after its first Tail
// F&A and before any install, so the slot's miss overlaps the entry's
// fetch. That order is as safe as access-then-F&A:
//  - A Tail ticket publishes nothing; only an install does.
//  - A push's value store comes before the acq_rel install CAS that
//    publishes its index in fq, so the popper that consumes the index
//    reads the value.
//  - A pop's value load comes before the install that returns its index
//    to aq, the only point from which a pusher can reuse the index and
//    overwrite the slot.
//  - If the first ticket is lost (its position is unusable and the
//    install fails), the access has already run and is not repeated.
//  - wCQ: if patience runs out, the request it publishes installs an
//    index whose slot was already written or read. Patience is at least
//    1 (options::validate), so the access always runs.
//  - LSCQ: when the segment's fq answers kClosed, which its Tail F&A
//    alone decides, the store may be skipped. The value was never
//    visible, and the index dies with the segment.
// The data accesses stay relaxed. The slow path (wCQ's slow_push and
// slow_pop) and the bursts' chunks still access the data first.
//
// TwoRingQueue<Ring> writes the construction once; SCQ (here), NCQ
// (ncq.hpp) and CCQ (ccq.hpp) are it over their own ring. wCQ
// (wcq.hpp) and the LSCQ segment (lscq.hpp) keep their own two-ring
// code: wCQ's stages take patience and fall back to the slow path, and
// a segment keeps its data in trailing storage behind a closable fq.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/scq_ring.hpp"

namespace wcq {

// Ring is any index ring with the kernel's shape: an (order, full)
// constructor, enqueue_idx/dequeue_idx taking an iteration
// budget (enqueue_idx also the stage's data access), and
// kEmpty/kUnbounded. Positions and cycles follow Geometry,
// so every such ring shares ring::kMaxOrder as its ceiling.
template <typename Ring>
class TwoRingQueue {
 public:
  // The rings are static and the ops carry no thread identity; the
  // empty handle exists so every backend has the same shape behind
  // wcq::concepts::Backend.
  using Handle = TrivialHandle;

  TwoRingQueue(const TwoRingQueue&) = delete;
  TwoRingQueue& operator=(const TwoRingQueue&) = delete;

  ~TwoRingQueue() {
    mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>));
  }

  std::uint64_t capacity() const { return n_; }

  std::optional<Handle> try_get_handle() { return Handle{}; }

  // False iff the queue is full.
  [[gnu::noinline]] bool try_push(std::uint64_t v, Handle&) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kEmpty) {
      return false;  // no free slots: full
    }
    fq_.enqueue_idx(idx, Ring::kUnbounded, detail::StoreValue{data_[idx], v});
    return true;
  }

  // False iff the queue is empty.
  [[gnu::noinline]] bool try_pop(std::uint64_t* v, Handle&) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kEmpty) {
      return false;
    }
    aq_.enqueue_idx(idx, Ring::kUnbounded, detail::LoadValue{data_[idx], v});
    return true;
  }

 protected:
  // Reads order (capacity = 2^order values); `who` prefixes refusals.
  TwoRingQueue(const options& opt, const char* who)
      : n_(std::uint64_t{1} << opt.validate(who, ring::kMaxOrder).order()),
        aq_(opt.order(), /*full=*/true),
        fq_(opt.order(), /*full=*/false) {
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  const std::uint64_t n_;
  Ring aq_;  // free slots (starts full)
  Ring fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

// SCQ as a bounded MPMC queue of 64-bit values.
class ScqQueue : public TwoRingQueue<ScqRing> {
 public:
  explicit ScqQueue(const options& opt) : TwoRingQueue(opt, "scq") {}
};

}  // namespace wcq
