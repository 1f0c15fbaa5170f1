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
// transition on the request's ctl word, not by an executor claim. A
// noted bit in each entry word mirrors whether a note is parked, so
// the fast path, as in the paper, keeps SCQ's single-word CAS; only
// the slow path issues CAS2.
// Threads check one peer for a pending request every `help_delay` own
// operations, the first on the `help_delay`-th ("to amortize the cost
// of help_threads", Section 3.1). An own operation is one that reaches
// a ring: a push, a pop past the empty exit, or a batch call's chunk
// of up to kBatchChunk values. A pop that the spent threshold answers
// empty is not one; as in the paper's Dequeue, it returns before the
// help check (see try_pop). A pop that fq answers from Tail <= Head
// (ScqRingT::dequeue_idx) is one: that exit runs after the check.
//
// A queue-level operation on the slow path is two ring-level requests
// driven in order by the owner (enqueue: aq-dequeue a free index,
// write data, fq-enqueue the index; dequeue mirrors it), each of which
// is helpable by everyone while it is pending. A fast-path push or pop
// instead runs its data access inside the second stage, right after
// that ring's first Tail ticket (put_idx).
//
// try_push_n/try_pop_n are native bursts: per chunk, one F&A on each
// ring's Tail or Head claims the chunk's tickets (ScqRingT's
// enqueue_idx_n/dequeue_idx_n) instead of one F&A per value per ring.
// Whatever a burst could not place takes the single-op path, so the
// full and empty answers stay try_push's and try_pop's.
//
// Compile with -DWCQ_ALL_SLOW to skip the fast path entirely, so
// every operation exercises the note protocol (test builds only).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_noted.hpp"  // ScqRingT + the Noted helping layer

namespace wcq {

// Operation counters, kept per handle slot and summed by stats(). Each
// pushed or popped value counts once, and so does each full or empty
// answer: slow iff its push or pop published a ring request, at either
// stage, and fast otherwise. Each slot's counters are written only by
// the thread holding that handle.
// A stats() call racing live handles reads the fields one at a time:
// every field is monotone across calls, but the snapshot may lag
// operations still in flight and need not be consistent across
// fields. Once the handles are quiescent the sums are exact.
struct WcqStats {
  std::uint64_t fast_enqueues = 0;
  std::uint64_t slow_enqueues = 0;
  std::uint64_t fast_dequeues = 0;
  std::uint64_t slow_dequeues = 0;
  // Peer requests driven. A handle checks one peer every help_delay
  // own operations that reach a ring, the first check on its
  // help_delay-th; a pop answered empty by the threshold is not one.
  std::uint64_t helps = 0;

  WcqStats& operator+=(const WcqStats& o) {
    fast_enqueues += o.fast_enqueues;
    slow_enqueues += o.slow_enqueues;
    fast_dequeues += o.fast_dequeues;
    slow_dequeues += o.slow_dequeues;
    helps += o.helps;
    return *this;
  }
};

// Portable=true models the Section 4 build for LL/SC machines: every
// double-width CAS goes through the compiler's 128-bit __atomic path
// instead of the native cmpxchg16b — the algorithmic shape of the
// POWER version exercised on whatever ISA we run on. As in the paper,
// it differs from the native queue only on the slow path, where
// libatomic reports that 16-byte CAS lock-free: both fast paths then
// mutate entries with the same single-word CAS. Where it does not
// (gcc 12's libatomic on x86-64, say), the portable fast path keeps a
// CAS2 per entry mutation (ScqRingT::narrow_word_cas).
template <bool Portable>
struct WcqTestAccess;

template <bool Portable>
class WcqQueueT {
  struct ThreadRec;

 public:
  // A thread's registration: its ThreadRec slot, recycled on release.
  using Handle = RegistryHandle<WcqQueueT, ThreadRec*>;

  // Reads order, max_threads, both patience knobs (MAX_PATIENCE) and
  // help_delay (HELP_DELAY). Note words carry ring indices in
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
        aq_(opt.order(), /*full=*/true, reqs_, /*is_fq=*/false),
        fq_(opt.order(), /*full=*/false, reqs_, /*is_fq=*/true),
        slots_(max_threads_) {
    for (unsigned i = 0; i < max_threads_; ++i) {
      new (&reqs_[i]) RingRequest();
    }
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
    }
    recs_ = static_cast<ThreadRec*>(
        mem::alloc(max_threads_ * sizeof(ThreadRec)));
    for (unsigned i = 0; i < max_threads_; ++i) {
      new (&recs_[i]) ThreadRec(help_delay_);
    }
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

  // False iff the queue is full.
  [[gnu::noinline]] bool try_push(std::uint64_t v, Handle& h) {
    maybe_help(h.slot());
    return push_one(h.slot(), v);
  }

  // False iff the queue is empty.
  //
  // As the paper's Dequeue does, try_pop tests fq's threshold before
  // the help check: a spent threshold is a definitive empty, answered
  // without touching the help cadence. That keeps wCQ wait-free. An
  // empty exit takes no ticket and mutates no entry, so it can delay no
  // pending request, and every operation that can contend with one (it
  // takes a Head or Tail ticket or changes an entry) reaches a ring and
  // still checks a peer every help_delay such operations. The ring's
  // second exit, Tail <= Head while the threshold is below armed
  // (ScqRingT::dequeue_idx), runs after the help check; it too takes no
  // ticket and mutates nothing, so a pop it answers still counts
  // toward help_delay but cannot delay a request either.
  //
  // Everything past the exit is one out-of-line call, pop_from_ring,
  // which try_pop tail-calls. Merely placing the test first leaves
  // gcc free to hoist the remainder's register saves above it; the
  // split keeps the exit a leaf: load the threshold, test, bump
  // fast_deq, return.
  [[gnu::noinline]] bool try_pop(std::uint64_t* v, Handle& h) {
    if (answered_empty(h.slot())) return false;
    return pop_from_ring(h.slot(), v);
  }

  // Batch enqueue: pushes vs[0..n) in order, stopping at the first
  // value refused as full; returns how many were accepted. Works in
  // chunks of kBatchChunk, each one own operation for the help cadence:
  // an aq burst claims the chunk's free indices with one F&A, and an fq
  // burst publishes them with one more (see push_chunk).
  [[gnu::noinline]] std::size_t try_push_n(const std::uint64_t* vs,
                                           std::size_t n, Handle& h) {
    std::size_t done = 0;
#if defined(WCQ_ALL_SLOW)
    while (done < n && try_push(vs[done], h)) ++done;
#else
    while (done < n) {
      const std::size_t k = std::min(n - done, kBatchChunk);
      const std::size_t ok = push_chunk(h.slot(), vs + done, k);
      done += ok;
      if (ok < k) break;
    }
#endif
    return done;
  }

  // Batch dequeue into out[0..n), in queue order: returns how many
  // values arrived, zero iff the queue is empty. Chunks as try_push_n,
  // each starting with try_pop's empty exit; an fq burst claims up to a
  // chunk of values with one F&A, and an aq burst returns their indices
  // with one more (see pop_chunk).
  [[gnu::noinline]] std::size_t try_pop_n(std::uint64_t* out, std::size_t n,
                                          Handle& h) {
    std::size_t done = 0;
#if defined(WCQ_ALL_SLOW)
    while (done < n && try_pop(&out[done], h)) ++done;
#else
    while (done < n) {
      const std::size_t k = std::min(n - done, kBatchChunk);
      const std::size_t ok = pop_chunk(h.slot(), out + done, k);
      done += ok;
      if (ok < k) break;
    }
#endif
    return done;
  }

  // Sums every handle slot's counters (see WcqStats). Safe to call from
  // any thread at any time; racing live handles it returns a per-field
  // monotone snapshot that may lag operations still in flight.
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
  friend Handle;

  // The wCQ ring, its CAS2s on the portable path iff Portable.
  using Ring = ScqRingT<ring::NotedEntry, false, Portable>;

  // One per handle slot, written only by the thread holding the slot:
  // helpers drive the slot's RingRequest, never its ThreadRec. With one
  // writer the counters are bumped by detail::owner_bump (relaxed load
  // + relaxed store, no locked RMW); they stay atomics so stats() can
  // sum them from any thread. A recycled slot's record passes to its
  // next owner through SlotRegistry's release -> acquire edge, so the
  // new owner continues from the last owner's final values, the help
  // countdown included.
  struct alignas(detail::kNoFalseSharing) ThreadRec {
    explicit ThreadRec(unsigned help_delay) : help_countdown(help_delay) {}

    std::atomic<std::uint64_t> fast_enq{0};
    std::atomic<std::uint64_t> slow_enq{0};
    std::atomic<std::uint64_t> fast_deq{0};
    std::atomic<std::uint64_t> slow_deq{0};
    std::atomic<std::uint64_t> helps{0};
    // Owner-thread locals. seq is only published through the
    // RingRequest ctl word.
    std::uint64_t seq = 0;
    // Own operations that reach a ring left until the next peer check.
    unsigned help_countdown;
    unsigned help_cursor = 0;
  };
  static_assert(sizeof(ThreadRec) == detail::kNoFalseSharing,
                "a ThreadRec must stay one false-sharing unit");

  // A handle gives its record back. The owner is past its last
  // operation, so its request is Idle and helpers ignore it; counters
  // intentionally persist so stats() stays monotone across recycling.
  void release_slot(ThreadRec* rec) {
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
    r->pos[fq_ring][deq].store(deq ? ring.head() : ring.tail(),
                              std::memory_order_relaxed);
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

  // try_push after its help check: the fast path, then the slow path.
  [[gnu::always_inline]] bool push_one(ThreadRec* rec, std::uint64_t v) {
#if !defined(WCQ_ALL_SLOW)
    std::uint64_t idx = 0;
    const typename Ring::Result rc = aq_.dequeue_idx(&idx, enqueue_patience_);
    if (rc == Ring::kEmpty) {
      detail::owner_bump(rec->fast_enq);
      return false;  // full: definitive, no slow path needed
    }
    if (rc == Ring::kOk) {
      // We already own the free index; only the second stage may need
      // the cooperative path. The value store rides in it, after fq's
      // first Tail ticket (put_idx).
      const bool fast = put_idx(rec, /*fq_ring=*/true, idx,
                                detail::StoreValue{data_[idx], v});
      detail::owner_bump(fast ? rec->fast_enq : rec->slow_enq);
      return true;
    }
#endif
    detail::owner_bump(rec->slow_enq);
    return slow_push(rec, v);
  }

  // The empty exit of try_pop and of each pop_chunk: true, with the
  // pop counted fast, iff fq's threshold is spent. The all-slow build
  // never takes it, so that every pop runs the note protocol.
  [[gnu::always_inline]] bool answered_empty(
      [[maybe_unused]] ThreadRec* rec) {
#if !defined(WCQ_ALL_SLOW)
    if (fq_.spent()) {
      detail::owner_bump(rec->fast_deq);
      return true;
    }
#endif
    return false;
  }

  // try_pop past its empty exit: an own operation, so the help check,
  // then the ring.
  [[gnu::noinline]] bool pop_from_ring(ThreadRec* rec, std::uint64_t* v) {
    maybe_help(rec);
    return pop_one(rec, v);
  }

  // A pop after its help check.
  [[gnu::always_inline]] bool pop_one(ThreadRec* rec, std::uint64_t* v) {
#if !defined(WCQ_ALL_SLOW)
    std::uint64_t idx = 0;
    const typename Ring::Result rc = fq_.dequeue_idx(&idx, dequeue_patience_);
    if (rc == Ring::kEmpty) {
      detail::owner_bump(rec->fast_deq);
      return false;
    }
    if (rc == Ring::kOk) {
      // As in push_one, only the index return may need the cooperative
      // path, and the value load rides in it, after aq's first Tail
      // ticket.
      const bool fast = put_idx(rec, /*fq_ring=*/false, idx,
                                detail::LoadValue{data_[idx], v});
      detail::owner_bump(fast ? rec->fast_deq : rec->slow_deq);
      return true;
    }
#endif
    detail::owner_bump(rec->slow_deq);
    return slow_pop(rec, v);
  }

  // The second stage of a push (fq_ring) or a pop: enqueue an index
  // this thread owns, within enqueue patience, else as a helpable
  // request. A ring enqueue cannot fail, only contend. True iff the
  // fast path placed it.
  //
  // `access` is the stage's data access (push_one's value store,
  // pop_one's value load); the ring runs it once, right after its first
  // Tail F&A, and scq.hpp argues why that order is safe. A ticket
  // publishes nothing: the store still precedes the install that
  // publishes idx in fq, the load the install that returns idx to aq.
  // When patience runs out, the request below installs an index whose
  // slot was already written or read, since options refuses a patience
  // of 0. A burst's leftovers pass none: their chunk moved every value.
  template <typename Access = detail::NoAccess>
  [[gnu::always_inline]] bool put_idx(ThreadRec* rec, bool fq_ring,
                                      std::uint64_t idx, Access access = {}) {
    if ((fq_ring ? fq_ : aq_).enqueue_idx(idx, enqueue_patience_, access) ==
        Ring::kOk) {
      return true;
    }
    publish_ring_op(rec, fq_ring, /*deq=*/false, idx);
    complete_ring_op(rec, nullptr);
    return false;
  }

  // One chunk (k <= kBatchChunk) of try_push_n; returns how many of
  // vs[0..k) it pushed, fewer only when the queue is full. A value is
  // counted fast when a burst or the fast path placed its index, slow
  // when it went through a published request.
  std::size_t push_chunk(ThreadRec* rec, const std::uint64_t* vs,
                         std::size_t k) {
    maybe_help(rec);
    std::uint64_t idx[kBatchChunk];
    const std::size_t got = aq_.dequeue_idx_n(idx, k);
    for (std::size_t i = 0; i < got; ++i) {
      data_[idx[i]].store(vs[i], std::memory_order_relaxed);
    }
    std::size_t fast = fq_.enqueue_idx_n(idx, got);
    // Indices the burst could not place follow it in order, as
    // try_push's second stage places one.
    for (std::size_t i = fast; i < got; ++i) {
      if (put_idx(rec, /*fq_ring=*/true, idx[i])) {
        ++fast;
      } else {
        detail::owner_bump(rec->slow_enq);
      }
    }
    detail::owner_bump(rec->fast_enq, fast);
    // Values that got no free index go one at a time, which keeps
    // try_push's definitive "full".
    std::size_t done = got;
    while (done < k && push_one(rec, vs[done])) ++done;
    return done;
  }

  // One chunk (k <= kBatchChunk) of try_pop_n. A spent threshold
  // answers 0 before the help check, as in try_pop. Every value is read
  // before any index goes back to aq, where a pusher could reuse it.
  // When the burst yields nothing, the single pop gives the answer, so
  // that 0 stays a definitive empty. Values are counted as push_chunk
  // counts them: slow when the index return went through a published
  // request.
  std::size_t pop_chunk(ThreadRec* rec, std::uint64_t* out, std::size_t k) {
    if (answered_empty(rec)) return 0;
    maybe_help(rec);
    std::uint64_t idx[kBatchChunk];
    const std::size_t got = fq_.dequeue_idx_n(idx, k);
    if (got == 0) return pop_one(rec, out) ? 1 : 0;
    for (std::size_t i = 0; i < got; ++i) {
      out[i] = data_[idx[i]].load(std::memory_order_relaxed);
    }
    std::size_t fast = aq_.enqueue_idx_n(idx, got);
    for (std::size_t i = fast; i < got; ++i) {
      if (put_idx(rec, /*fq_ring=*/false, idx[i])) {
        ++fast;
      } else {
        detail::owner_bump(rec->slow_deq);
      }
    }
    detail::owner_bump(rec->fast_deq, fast);
    return got;
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

  // Once every help_delay own operations (those that reach a ring),
  // first on the help_delay-th, look at one peer (round-robin) and
  // drive its pending request, if any, to completion. A countdown keeps
  // division off the hot path.
  void maybe_help(ThreadRec* rec) {
    if (--rec->help_countdown != 0) return;
    rec->help_countdown = help_delay_;
    const unsigned touched = slots_.high_water();
    if (touched <= 1) return;
    unsigned peer = rec->help_cursor++ % touched;
    if (&recs_[peer] == rec) {
      // Landing on our own record must still spend the round on a real
      // peer: consecutive cursor values differ mod touched (>= 2), so
      // one step forward is guaranteed to leave our record.
      peer = rec->help_cursor++ % touched;
    }
    if (help_request(&reqs_[peer])) detail::owner_bump(rec->helps);
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

// Deterministic slow-path levers for the test suite: publish a request
// exactly as a stalling owner would, let other handles help it, then
// resume the owner. Mirrors WcqQueueT's own slow_push/slow_pop split.
template <bool Portable>
struct WcqTestAccess {
  using Q = WcqQueueT<Portable>;
  using H = typename Q::Handle;

  // Owner published a slow pop (stage 1: fq dequeue) and stalled.
  static void publish_stalled_pop(Q& q, H& h) {
    q.publish_ring_op(h.slot(), /*fq_ring=*/true, /*deq=*/true, 0);
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
    q.publish_ring_op(h.slot(), /*fq_ring=*/true, /*deq=*/false, idx);
    return true;
  }

  // Owner popped a value through fq (stage 1, into *v), published its
  // index's return to aq (stage 2), and stalled before driving it.
  // False iff fq had no value: nothing is published then.
  static bool publish_stalled_index_return(Q& q, H& h, std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (q.fq_.dequeue_idx(&idx, Q::Ring::kUnbounded) != Q::Ring::kOk) {
      return false;
    }
    *v = q.data_[idx].load(std::memory_order_relaxed);
    q.publish_ring_op(h.slot(), /*fq_ring=*/false, /*deq=*/false, idx);
    return true;
  }

  // A helper drives h's pending ring enqueue through its claim, the
  // commit decision and the commit's CAS2, then stalls before the
  // commit is published: the value is installed, but neither Tail nor
  // the threshold knows it. Only finalize() can publish it now. True
  // iff the CAS2 succeeded.
  static bool commit_stalled(Q& q, H& h) {
    RingRequest* r = q.req_of(h.slot());
    std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    typename Q::Ring& ring = detail::ctl_fq(c) ? q.fq_ : q.aq_;
    // The first step claims an entry, the next proposes it for commit.
    while (detail::ctl_state(c) == detail::kReqPending) {
      ring.step_enqueue(r, c);
      c = r->ctl.load(std::memory_order_acquire);
    }
    const std::uint64_t j = detail::ctl_j(c);
    const auto& entry = ring.entries_[j];
    const std::uint64_t w = entry.word.load(std::memory_order_acquire);
    const std::uint64_t n = entry.note.load(std::memory_order_acquire);
    std::uint64_t cycle = 0;
    return ring.commit_word(r, j, n, w, &cycle);
  }

  // One ring-level operation of h's owner, published and driven to its
  // end (a dequeue's index in *out). Returns the ctl word it was
  // published with: a helper that read it then and steps now is stale.
  static std::uint64_t ring_op(Q& q, H& h, bool fq, bool deq,
                               std::uint64_t arg, std::uint64_t* out) {
    q.publish_ring_op(h.slot(), fq, deq, arg);
    const std::uint64_t c =
        q.req_of(h.slot())->ctl.load(std::memory_order_acquire);
    q.complete_ring_op(h.slot(), out);
    return c;
  }

  // One Pending-state step of h's request on the fq (or aq) ring, taken
  // by a helper that read ctl word c earlier.
  static void step(Q& q, H& h, bool fq, std::uint64_t c) {
    typename Q::Ring& ring = fq ? q.fq_ : q.aq_;
    RingRequest* r = q.req_of(h.slot());
    if (detail::ctl_deq(c)) {
      ring.step_dequeue(r, c);
    } else {
      ring.step_enqueue(r, c);
    }
  }

  // h's dequeue scan position on the fq (or aq) ring, and that ring's
  // Head and Tail.
  static std::uint64_t dequeue_scan(Q& q, H& h, bool fq) {
    return q.req_of(h.slot())->pos[fq][1].load(std::memory_order_acquire);
  }
  static std::uint64_t head(Q& q, bool fq) {
    return (fq ? q.fq_ : q.aq_).head();
  }
  static std::uint64_t tail(Q& q, bool fq) {
    return (fq ? q.fq_ : q.aq_).tail();
  }

  // Helper-side single call: drive h's request as maybe_help would.
  static bool help(Q& q, H& h) { return q.help_request(q.req_of(h.slot())); }

  static bool done_ok(Q& q, H& h) {
    const std::uint64_t c =
        q.req_of(h.slot())->ctl.load(std::memory_order_acquire);
    return detail::ctl_state(c) == detail::kReqDoneOk;
  }

  // Owner resumes a stalled pop: finish stage 1 (possibly already done
  // by helpers), then run stage 2 (return the index to aq).
  static bool finish_pop(Q& q, H& h, std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (!q.complete_ring_op(h.slot(), &idx)) return false;
    *v = q.data_[idx].load(std::memory_order_relaxed);
    q.publish_ring_op(h.slot(), /*fq_ring=*/false, /*deq=*/false, idx);
    q.complete_ring_op(h.slot(), nullptr);
    return true;
  }

  // Owner resumes a stalled push: its stage 2 is the whole remainder.
  static bool finish_push(Q& q, H& h) {
    return q.complete_ring_op(h.slot(), nullptr);
  }

  static std::uint64_t helps(H& h) {
    return h.slot()->helps.load(std::memory_order_relaxed);
  }

  // Whether the aq (fq = false) or fq ring's fast path mutates entries
  // with the 8-byte CAS rather than CAS2 (ScqRingT::narrow_word_cas).
  static bool narrow_word_cas(Q& q, bool fq) {
    return (fq ? q.fq_ : q.aq_).narrow_word_cas();
  }

  // Whether every handle slot's dequeue scan position, on both rings,
  // is at or below that ring's Head (read after it). A slow dequeue
  // never scans ahead of Head (ScqRingT::step_dequeue). Safe while
  // other threads run operations.
  static bool dequeue_scans_behind_head(Q& q) {
    typename Q::Ring* const rings[] = {&q.aq_, &q.fq_};
    for (unsigned slot = 0; slot < q.max_threads_; ++slot) {
      for (bool fq : {false, true}) {
        const std::uint64_t p =
            q.reqs_[slot].pos[fq][1].load(std::memory_order_acquire);
        if (p > rings[fq]->head()) return false;
      }
    }
    return true;
  }

  // Calls visit(pair) with every {word, note} entry of aq, then of fq,
  // each read atomically: a CAS2 whose desired value is its expected
  // value, so it only ever writes back what it read. Safe while other
  // threads run operations.
  template <typename F>
  static void for_each_entry(Q& q, F&& visit) {
    typename Q::Ring* const rings[] = {&q.aq_, &q.fq_};
    for (typename Q::Ring* ring : rings) {
      for (std::uint64_t j = 0; j < ring->geo_.ring_size(); ++j) {
        auto* addr = reinterpret_cast<detail::Pair*>(&ring->entries_[j]);
        detail::Pair seen{0, 0};
        if constexpr (Portable) {
          detail::cas2_portable(addr, &seen, seen);
        } else {
          detail::cas2(addr, &seen, seen);
        }
        visit(seen);
      }
    }
  }
};

using WcqQueue = WcqQueueT<false>;
using WcqPortableQueue = WcqQueueT<true>;

}  // namespace wcq
