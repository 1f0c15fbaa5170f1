// wCQ (Nikolaev & Ravindran, SPAA 2022): a wait-free bounded queue
// built on the SCQ ring. The fast path is SCQ with bounded patience
// (Section 6 uses 16 enqueue / 64 dequeue attempts); when patience
// runs out the operation is published as a RingRequest and completed
// through the paper's cooperative note protocol (Figures 4-7): every
// ring entry carries a note word next to it, claims and commits are
// double-width CASes, and *any* number of threads — the owner plus
// every helper that notices the request — advance the same pending
// operation concurrently. No thread ever takes exclusive ownership of
// a request; the commit is made unique by a single Pending->Phase2
// transition on the request's ctl word, not by an executor claim.
// Threads check one peer for a pending request every `help_delay` own
// operations ("to amortize the cost of help_threads", Section 3.1).
//
// A queue-level operation on the slow path is two ring-level requests
// driven in order by the owner (enqueue: aq-dequeue a free index,
// write data, fq-enqueue the index; dequeue mirrors it), each of which
// is helpable by everyone while it is pending.
//
// Compile with -DWCQ_ALL_SLOW to skip the fast path entirely, so
// every operation exercises the note protocol (test builds only).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_noted.hpp"  // ScqRingT + the Noted helping layer

namespace wcq {

struct WcqStats {
  std::uint64_t fast_enqueues = 0;
  std::uint64_t slow_enqueues = 0;
  std::uint64_t fast_dequeues = 0;
  std::uint64_t slow_dequeues = 0;
  std::uint64_t helps = 0;
};

// Portable=true models the Section 4 build for LL/SC machines: every
// double-width CAS goes through the compiler's 128-bit __atomic path
// instead of the native cmpxchg16b — the algorithmic shape of the
// POWER version exercised on whatever ISA we run on.
template <bool Portable>
struct WcqTestAccess;

template <bool Portable>
class WcqQueueT {
 public:
  class Handle;

  // Reads order, max_threads, both patience knobs (MAX_PATIENCE),
  // help_delay (HELP_DELAY) and remap. Note words carry ring indices in
  // 21 aux bits and thread slots in 9, so validate() refuses an order
  // above detail::kMaxNoteOrder (20) and max_threads above
  // detail::kMaxNoteThreads (512).
  explicit WcqQueueT(const options& opt)
      : max_threads_(opt.validate("wcq", detail::kMaxNoteOrder,
                                  detail::kMaxNoteThreads)
                         .max_threads()),
        enqueue_patience_(opt.enqueue_patience()),
        dequeue_patience_(opt.dequeue_patience()),
        help_delay_(opt.help_delay()),
        n_(std::uint64_t{1} << opt.order()),
        reqs_(static_cast<RingRequest*>(
            mem::alloc(max_threads_ * sizeof(RingRequest)))),
        aq_(opt.order(), opt.remap(), reqs_, /*is_fq=*/false),
        fq_(opt.order(), opt.remap(), reqs_, /*is_fq=*/true),
        slots_(max_threads_) {
    for (unsigned i = 0; i < max_threads_; ++i) {
      new (&reqs_[i]) RingRequest();
    }
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
      aq_.enqueue_idx(i, Ring::kUnbounded);
    }
    recs_ = static_cast<ThreadRec*>(
        mem::alloc(max_threads_ * sizeof(ThreadRec)));
    for (unsigned i = 0; i < max_threads_; ++i) new (&recs_[i]) ThreadRec();
  }

  ~WcqQueueT() {
    // Lifetime contract: every handle must die before its queue — a
    // surviving handle's destructor would write into freed registry
    // memory. Catch the misuse here, where the guilty queue is known.
    assert(slots_.live() == 0 &&
           "wcq: a Handle is outliving its queue (use-after-free ahead)");
    for (unsigned i = 0; i < max_threads_; ++i) recs_[i].~ThreadRec();
    mem::free(recs_, max_threads_ * sizeof(ThreadRec));
    mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>));
    for (unsigned i = 0; i < max_threads_; ++i) reqs_[i].~RingRequest();
    mem::free(reqs_, max_threads_ * sizeof(RingRequest));
  }

  WcqQueueT(const WcqQueueT&) = delete;
  WcqQueueT& operator=(const WcqQueueT&) = delete;

  std::uint64_t capacity() const { return n_; }

  // Every participating thread needs its own handle (the paper's
  // per-thread state for helping). Handles are RAII: destruction
  // returns the ThreadRec slot to a free list, so max_threads bounds
  // *concurrent* participants, not lifetime thread count. A handle
  // must not outlive its queue (its destructor touches the queue's
  // registry); the queue's destructor asserts this in debug builds.
  //
  // nullopt iff max_threads handles are simultaneously live.
  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, &recs_[slot]);
  }

  // Throwing flavor for call sites where exhaustion is a logic error.
  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "wcq: all max_threads handle slots are simultaneously live");
    }
    return std::move(*h);
  }

  // False iff the queue is full.
  bool try_push(std::uint64_t v, Handle& h) {
    ThreadRec* rec = h.rec_;
    maybe_help(rec);
#if !defined(WCQ_ALL_SLOW)
    std::uint64_t idx = 0;
    const typename Ring::Result rc = aq_.dequeue_idx(&idx, enqueue_patience_);
    if (rc == Ring::kEmpty) {
      rec->fast_enq.fetch_add(1, std::memory_order_relaxed);
      return false;  // full: definitive, no slow path needed
    }
    if (rc == Ring::kOk) {
      data_[idx].store(v, std::memory_order_relaxed);
      if (fq_.enqueue_idx(idx, enqueue_patience_) == Ring::kOk) {
        rec->fast_enq.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // We already own the free index; only the second stage needs the
      // cooperative path (a ring enqueue cannot fail, only contend).
      rec->slow_enq.fetch_add(1, std::memory_order_relaxed);
      publish_ring_op(rec, /*fq_ring=*/true, /*deq=*/false, idx);
      complete_ring_op(rec, nullptr);
      return true;
    }
#endif
    rec->slow_enq.fetch_add(1, std::memory_order_relaxed);
    return slow_push(rec, v);
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    ThreadRec* rec = h.rec_;
    maybe_help(rec);
#if !defined(WCQ_ALL_SLOW)
    std::uint64_t idx = 0;
    const typename Ring::Result rc = fq_.dequeue_idx(&idx, dequeue_patience_);
    if (rc == Ring::kEmpty) {
      rec->fast_deq.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (rc == Ring::kOk) {
      *v = data_[idx].load(std::memory_order_relaxed);
      if (aq_.enqueue_idx(idx, enqueue_patience_) != Ring::kOk) {
        publish_ring_op(rec, /*fq_ring=*/false, /*deq=*/false, idx);
        complete_ring_op(rec, nullptr);
      }
      rec->fast_deq.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
#endif
    rec->slow_deq.fetch_add(1, std::memory_order_relaxed);
    return slow_pop(rec, v);
  }

  WcqStats stats() const {
    WcqStats s;
    // Counters survive slot recycling (they are per-slot accumulators,
    // never reset on release), so this sum is consistent across any
    // amount of thread churn.
    const unsigned touched = slots_.high_water();
    for (unsigned i = 0; i < touched; ++i) {
      s.fast_enqueues += recs_[i].fast_enq.load(std::memory_order_relaxed);
      s.slow_enqueues += recs_[i].slow_enq.load(std::memory_order_relaxed);
      s.fast_dequeues += recs_[i].fast_deq.load(std::memory_order_relaxed);
      s.slow_dequeues += recs_[i].slow_deq.load(std::memory_order_relaxed);
      s.helps += recs_[i].helps.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  // Test-only backdoor (tests/test_helping.cpp, test_slow_path.cpp):
  // publishes a request without the owner driving it, so the
  // helper-completion path gets deterministic coverage.
  friend struct WcqTestAccess<Portable>;

  // The wCQ ring, its CAS2s on the portable path iff Portable.
  using Ring = ScqRingT<true, false, Portable>;

  struct alignas(detail::kNoFalseSharing) ThreadRec {
    std::atomic<std::uint64_t> fast_enq{0};
    std::atomic<std::uint64_t> slow_enq{0};
    std::atomic<std::uint64_t> fast_deq{0};
    std::atomic<std::uint64_t> slow_deq{0};
    std::atomic<std::uint64_t> helps{0};
    // Owner-thread locals (never touched by helpers). seq is only
    // published through the RingRequest ctl word.
    std::uint64_t seq = 0;
    std::uint64_t op_count = 0;
    unsigned help_cursor = 0;
  };

  void release_rec(ThreadRec* rec) {
    // The owner is past its last operation, so its request is Idle and
    // helpers ignore it; counters intentionally persist so stats()
    // stays monotone across recycling.
    slots_.release(static_cast<unsigned>(rec - recs_));
  }

  RingRequest* req_of(ThreadRec* rec) {
    return &reqs_[static_cast<unsigned>(rec - recs_)];
  }

  // Publish one ring-level operation as this thread's request. Does
  // not drive it: from this moment any helper can complete it.
  void publish_ring_op(ThreadRec* rec, bool fq_ring, bool deq,
                       std::uint64_t arg) {
    RingRequest* r = req_of(rec);
    const std::uint64_t seq = ++rec->seq;
    r->arg.store(arg, std::memory_order_relaxed);
    r->result.store(detail::pack_result(seq, detail::kResultNone),
                    std::memory_order_relaxed);
    Ring& ring = fq_ring ? fq_ : aq_;
    r->pos.store(deq ? ring.head() : ring.tail(), std::memory_order_relaxed);
    r->ctl.store(detail::pack_ctl(seq, 0, fq_ring, deq, detail::kReqPending),
                 std::memory_order_release);
  }

  // Owner side: drive own request to a terminal state, harvest the
  // result, and return the record to Idle. True iff DoneOk.
  bool complete_ring_op(ThreadRec* rec, std::uint64_t* out) {
    RingRequest* r = req_of(rec);
    std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    (detail::ctl_fq(c) ? fq_ : aq_).help_slow(r);
    c = r->ctl.load(std::memory_order_acquire);
    const bool ok = detail::ctl_state(c) == detail::kReqDoneOk;
    if (ok && out != nullptr) {
      // finalize() CASed the seq-tagged result in before DoneOk.
      *out = detail::result_val(r->result.load(std::memory_order_acquire));
    }
    r->ctl.store(detail::ctl_with(c, 0, detail::kReqIdle),
                 std::memory_order_release);
    return ok;
  }

  // Helper side: drive a peer's request if it has one pending. Safe to
  // call concurrently with the owner and other helpers; everyone
  // advances the same shared state by CAS.
  bool help_request(RingRequest* r) {
    const std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    const std::uint64_t st = detail::ctl_state(c);
    if (st != detail::kReqPending && st != detail::kReqPhase2) return false;
    (detail::ctl_fq(c) ? fq_ : aq_).help_slow(r);
    return true;
  }

  // Queue-level slow enqueue: two helpable ring requests in sequence.
  bool slow_push(ThreadRec* rec, std::uint64_t v) {
    std::uint64_t idx = 0;
    publish_ring_op(rec, /*fq_ring=*/false, /*deq=*/true, 0);
    if (!complete_ring_op(rec, &idx)) return false;  // aq empty: full
    data_[idx].store(v, std::memory_order_relaxed);
    publish_ring_op(rec, /*fq_ring=*/true, /*deq=*/false, idx);
    complete_ring_op(rec, nullptr);  // ring enqueue cannot fail
    return true;
  }

  bool slow_pop(ThreadRec* rec, std::uint64_t* v) {
    std::uint64_t idx = 0;
    publish_ring_op(rec, /*fq_ring=*/true, /*deq=*/true, 0);
    if (!complete_ring_op(rec, &idx)) return false;  // empty
    *v = data_[idx].load(std::memory_order_relaxed);
    publish_ring_op(rec, /*fq_ring=*/false, /*deq=*/false, idx);
    complete_ring_op(rec, nullptr);
    return true;
  }

  // Every help_delay own-operations, look at one peer (round-robin)
  // and drive its pending request, if any, to completion.
  void maybe_help(ThreadRec* rec) {
    if (++rec->op_count % help_delay_ != 0) return;
    const unsigned touched = slots_.high_water();
    if (touched <= 1) return;
    unsigned peer = rec->help_cursor++ % touched;
    if (&recs_[peer] == rec) {
      // Landing on our own record must still spend the round on a real
      // peer: consecutive cursor values differ mod touched (>= 2), so
      // one step forward is guaranteed to leave our record.
      peer = rec->help_cursor++ % touched;
    }
    if (help_request(&reqs_[peer])) {
      rec->helps.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const unsigned max_threads_;
  const unsigned enqueue_patience_;
  const unsigned dequeue_patience_;
  const unsigned help_delay_;
  const std::uint64_t n_;
  RingRequest* const reqs_;  // shared by both rings, indexed by slot
  Ring aq_;
  Ring fq_;
  std::atomic<std::uint64_t>* data_ = nullptr;
  ThreadRec* recs_ = nullptr;
  SlotRegistry slots_;
};

template <bool Portable>
class WcqQueueT<Portable>::Handle {
 public:
  // Handles only come from the queue; a default-constructed one would
  // dereference null on first use.
  Handle() = delete;

  Handle(Handle&& other) noexcept
      : q_(std::exchange(other.q_, nullptr)),
        rec_(std::exchange(other.rec_, nullptr)) {}

  Handle& operator=(Handle&& other) noexcept {
    if (this != &other) {
      release();
      q_ = std::exchange(other.q_, nullptr);
      rec_ = std::exchange(other.rec_, nullptr);
    }
    return *this;
  }

  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  ~Handle() { release(); }

  // True unless moved-from. Using a moved-from handle is UB.
  explicit operator bool() const { return rec_ != nullptr; }

 private:
  friend class WcqQueueT<Portable>;
  friend struct WcqTestAccess<Portable>;

  Handle(WcqQueueT* q, ThreadRec* rec) : q_(q), rec_(rec) {}

  void release() {
    if (q_ != nullptr) q_->release_rec(rec_);
    q_ = nullptr;
    rec_ = nullptr;
  }

  WcqQueueT* q_ = nullptr;
  ThreadRec* rec_ = nullptr;
};

// Deterministic slow-path levers for the test suite: publish a request
// exactly as a stalling owner would, let other handles help it, then
// resume the owner. Mirrors WcqQueueT's own slow_push/slow_pop split.
template <bool Portable>
struct WcqTestAccess {
  using Q = WcqQueueT<Portable>;
  using H = typename Q::Handle;

  // Owner published a slow pop (stage 1: fq dequeue) and stalled.
  static void publish_stalled_pop(Q& q, H& h) {
    q.publish_ring_op(h.rec_, /*fq_ring=*/true, /*deq=*/true, 0);
  }

  // Owner got its free index, wrote the value, published the fq
  // enqueue (stage 2) — and stalled before driving it. False iff the
  // aq had no free index (queue full): nothing is published then, so
  // a test never installs a garbage index.
  static bool publish_stalled_push(Q& q, H& h, std::uint64_t v) {
    std::uint64_t idx = 0;
    if (q.aq_.dequeue_idx(&idx, Q::Ring::kUnbounded) != Q::Ring::kOk) {
      return false;
    }
    q.data_[idx].store(v, std::memory_order_relaxed);
    q.publish_ring_op(h.rec_, /*fq_ring=*/true, /*deq=*/false, idx);
    return true;
  }

  // Helper-side single call: drive h's request as maybe_help would.
  static bool help(Q& q, H& h) { return q.help_request(q.req_of(h.rec_)); }

  static bool done_ok(Q& q, H& h) {
    const std::uint64_t c =
        q.req_of(h.rec_)->ctl.load(std::memory_order_acquire);
    return detail::ctl_state(c) == detail::kReqDoneOk;
  }

  // Owner resumes a stalled pop: finish stage 1 (possibly already done
  // by helpers), then run stage 2 (return the index to aq).
  static bool finish_pop(Q& q, H& h, std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (!q.complete_ring_op(h.rec_, &idx)) return false;
    *v = q.data_[idx].load(std::memory_order_relaxed);
    q.publish_ring_op(h.rec_, /*fq_ring=*/false, /*deq=*/false, idx);
    q.complete_ring_op(h.rec_, nullptr);
    return true;
  }

  // Owner resumes a stalled push: its stage 2 is the whole remainder.
  static bool finish_push(Q& q, H& h) {
    return q.complete_ring_op(h.rec_, nullptr);
  }

  static std::uint64_t helps(H& h) {
    return h.rec_->helps.load(std::memory_order_relaxed);
  }
};

using WcqQueue = WcqQueueT<false>;
using WcqPortableQueue = WcqQueueT<true>;

}  // namespace wcq
