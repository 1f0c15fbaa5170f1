// Slow-path battery: every test here forces traffic through the CAS2
// note protocol, either with patience=1 (one fast attempt, then
// publish a request) or — when built with -DWCQ_ALL_SLOW, as the
// *_all_slow ctest variant does — with the fast path compiled out
// entirely, so literally every operation runs claim/commit/finalize.
//
// Covered: single-thread FIFO and empty/full through the slow path,
// the shared MPMC battery (no loss, no duplication, per-producer order
// and the empty-answer witness; watched for the noted-bit invariant on
// every entry of both rings), once with single ops and once with
// try_push_n/try_pop_n bursts racing the parked notes (per-value slow
// ops in the all-slow build), and two helpers
// stepping the SAME pending request in turn, with the operation
// completing exactly once. Also the bounded-memory invariant: after
// construction and handle registration, wCQ (both builds), SCQ, NCQ
// and CCQ make no mem::alloc call, here at patience 1 and at the
// default patience.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/ccq.hpp"
#include "wcq/mem.hpp"
#include "wcq/ncq.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq.hpp"
#include "wcq/wcq.hpp"

namespace {

using namespace wcq;

// patience(1,1): one fast attempt before publishing a request. Under
// WCQ_ALL_SLOW the option is moot (there is no fast path), but keeping
// it makes the two build variants run identical configurations.
options slow_opts(unsigned order, unsigned max_threads) {
  return options{}
      .order(order)
      .max_threads(max_threads)
      .patience(1, 1)
      .help_delay(1);
}

template <bool Portable>
void test_slow_fifo(const char* name) {
  WcqQueueT<Portable> q(slow_opts(12, 2));  // capacity 4096 > n
  auto h = test::backend_handle(q);
  const std::uint64_t n = 3000;
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: slow push %llu refused", name,
              (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    WCQ_CHECK(q.try_pop(&v, h), "%s: slow pop %llu empty", name,
              (unsigned long long)i);
    WCQ_CHECK(v == i, "%s: got %llu want %llu (FIFO violated)", name,
              (unsigned long long)v, (unsigned long long)i);
  }
  std::uint64_t v = 0;
  WCQ_CHECK(!q.try_pop(&v, h), "%s: drained queue not empty", name);
  std::printf("  ok slow_fifo         %s\n", name);
}

template <bool Portable>
void test_slow_empty_full(const char* name) {
  const std::uint64_t cap = 32;
  WcqQueueT<Portable> q(slow_opts(5, 2));
  auto h = test::backend_handle(q);
  std::uint64_t v = 0;
  for (int i = 0; i < 50; ++i) {
    WCQ_CHECK(!q.try_pop(&v, h), "%s: fresh queue not empty", name);
  }
  for (std::uint64_t i = 0; i < cap; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: fill push %llu refused", name,
              (unsigned long long)i);
  }
  for (int i = 0; i < 50; ++i) {
    WCQ_CHECK(!q.try_push(999, h), "%s: push into full ring succeeded",
              name);
  }
  for (std::uint64_t i = 0; i < cap; ++i) {
    WCQ_CHECK(q.try_pop(&v, h) && v == i, "%s: drain %llu broken", name,
              (unsigned long long)i);
  }
  // Reusable across many wraps after full/empty episodes.
  for (std::uint64_t i = 0; i < cap * 8; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: wrap push refused", name);
    WCQ_CHECK(q.try_pop(&v, h) && v == i, "%s: wrap roundtrip broken",
              name);
  }
  std::printf("  ok slow_empty_full   %s\n", name);
}

// Scans every {word, note} entry of both rings, each read atomically,
// until `done`, at least once, and fails at once on an entry whose
// word's bit 63 disagrees with note != 0: the fast path's single-word
// CAS is only correct under that invariant. Each scan also fails on a
// slow dequeue scanning ahead of its ring's Head, which lets a commit's
// Head bump jump over values queued behind the scan. `parked` counts
// entries seen holding a note; it depends on scheduling, so it is
// reported, never asserted.
template <bool Portable>
struct NotedBitWatcher {
  std::uint64_t parked = 0;
  std::uint64_t scans = 0;

  void run(WcqQueueT<Portable>& q, const std::atomic<bool>& done,
           const char* name) {
    do {
      WcqTestAccess<Portable>::for_each_entry(q, [&](detail::Pair e) {
        const bool bit = (e.word & ring::NotedEntry::kNotedBit) != 0;
        WCQ_CHECK(bit == (e.note != 0),
                  "%s: noted bit %d disagrees with note %#llx (word %#llx)",
                  name, bit, (unsigned long long)e.note,
                  (unsigned long long)e.word);
        if (e.note != 0) ++parked;
      });
      WCQ_CHECK(WcqTestAccess<Portable>::dequeue_scans_behind_head(q),
                "%s: a slow dequeue scans ahead of its ring's Head", name);
      ++scans;
    } while (!done.load(std::memory_order_acquire));
  }
};

// The fast path's 8-byte word CAS is atomic against CAS2 only where
// CAS2 is one hardware instruction: native wCQ's inline cmpxchg16b
// (detail::kCas2Hardware), and the portable build's libatomic CAS2
// only where libatomic reports a 16-byte CAS lock-free. Both rings must
// pick the 8-byte CAS exactly there; which one this platform runs is
// printed.
template <bool Portable>
void test_word_cas_width(const char* name) {
  WcqQueueT<Portable> q(options{}.order(4).max_threads(2));
  alignas(16) detail::Pair probe{0, 0};
  const bool want =
      detail::kCas2Hardware &&
      (!Portable || __atomic_is_lock_free(sizeof(probe), &probe));
  for (const bool fq : {false, true}) {
    WCQ_CHECK(WcqTestAccess<Portable>::narrow_word_cas(q, fq) == want,
              "%s: %s ring's fast path uses %s, want %s", name,
              fq ? "fq" : "aq", want ? "CAS2" : "the 8-byte CAS",
              want ? "the 8-byte CAS" : "CAS2");
  }
  std::printf("  ok word_cas_width    %s (fast path: %s)\n", name,
              want ? "8-byte CAS" : "CAS2");
}

// The shared MPMC battery (test::test_mpmc: ledger, per-producer
// order, empty-answer witness) on a patience-1 queue, with the
// NotedBitWatcher beside the workers. `bursts`: producers push with
// try_push_n and consumers pop with try_pop_n, of 1-64 values each.
//
// Values per producer: at patience 1 the witness needs runs long
// enough for the threads to spread over the CPUs. On a 4-vCPU Xeon an
// empty exit broken on purpose (keyed on the threshold alone) failed
// 4 of 30 executions at 5000, 40 of 60 at 20000 and 56 of 60 at 40000.
// The all-slow build never reaches the rings' empty exits (every
// operation is a published request), so it keeps 5000, which also
// bounds its TSan time.
#if defined(WCQ_ALL_SLOW)
constexpr std::uint64_t kMpmcPerProducer = 5000;
#else
constexpr std::uint64_t kMpmcPerProducer = 40000;
#endif

template <bool Portable>
void test_slow_mpmc(const char* name, unsigned producers, unsigned consumers,
                    bool bursts) {
  using Q = queue<std::uint64_t, WcqQueueT<Portable>>;
  NotedBitWatcher<Portable> watch;
  test::MpmcRun<Q> run;
  run.opt = slow_opts(8, /*max_threads=*/0);  // test_mpmc sets it
  run.bursts = bursts;
  run.beside = [&](Q& q, const std::atomic<bool>& done) {
    watch.run(q.backend(), done, name);
  };
  run.after = [&](Q& q) {
    // Under ALL_SLOW every operation is structurally a slow op, so the
    // counter check is deterministic. With patience=1 it depends on
    // real CAS contention, which a single-core scheduler may never
    // produce — there the deterministic slow-path coverage comes from
    // the stalled-owner tests below, and we only report the observed
    // rate.
    const WcqStats st = q.stats();
#if defined(WCQ_ALL_SLOW)
    WCQ_CHECK(st.slow_enqueues + st.slow_dequeues > 0,
              "%s: all-slow build never took the slow path", name);
#endif
    std::printf("  .. slow_mpmc %ux%u%s %s: %llu slow ops; %llu parked "
                "notes seen in %llu scans\n",
                producers, consumers, bursts ? " burst" : "", name,
                (unsigned long long)(st.slow_enqueues + st.slow_dequeues),
                (unsigned long long)watch.parked,
                (unsigned long long)watch.scans);
  };
  test::test_mpmc<Q>(name, producers, consumers,
                     test::env_ops(kMpmcPerProducer), run);
}

// Regression for slow-path threshold accounting. Threshold decrements
// must be tied to unique global Head tickets; with a per-request
// decrement stream, k stale-positioned slow dequeues account the same
// spent position up to k times, drive threshold below zero while a
// value is still parked, and return a definitive — and wrong —
// "empty". This builds that scenario deterministically: 12 values in a
// capacity-16 ring (threshold_init 47), then 11 pop requests all
// published before any is driven, so every request's scan starts at
// the same Head snapshot. Completing them one by one makes request i
// rescan the i-1 positions its predecessors consumed: per-request
// accounting racks up 0+1+...+10 = 55 spurious decrements and request
// 11 finalizes empty with two values still parked; head-ticket
// accounting never decrements for a position it did not take from the
// global Head stream, so all 11 pops must succeed and the 12th value
// must still be there.
template <bool Portable>
void test_no_premature_empty(const char* name) {
  using Access = WcqTestAccess<Portable>;
  constexpr unsigned kPops = 11;
  constexpr unsigned kValues = kPops + 1;
  WcqQueueT<Portable> q(slow_opts(4, kPops + 1));  // capacity 16
  auto seed = test::backend_handle(q);

  std::vector<typename WcqQueueT<Portable>::Handle> stalled;
  stalled.reserve(kPops);
  for (unsigned i = 0; i < kPops; ++i) {
    stalled.push_back(test::backend_handle(q));
  }

  for (unsigned i = 0; i < kValues; ++i) {
    WCQ_CHECK(q.try_push(100 + i, seed), "%s: fill push %u refused", name, i);
  }
  // All requests snapshot the same scan start before any consume.
  for (unsigned i = 0; i < kPops; ++i) {
    Access::publish_stalled_pop(q, stalled[i]);
  }
  for (unsigned i = 0; i < kPops; ++i) {
    Access::help(q, stalled[i]);  // drives request i to a terminal state
    WCQ_CHECK(Access::done_ok(q, stalled[i]),
              "%s: pop %u finalized empty with values parked "
              "(threshold over-drained)",
              name, i);
    std::uint64_t v = 0;
    WCQ_CHECK(Access::finish_pop(q, stalled[i], &v) && v == 100 + i,
              "%s: pop %u got %llu want %u", name, i, (unsigned long long)v,
              100 + i);
  }
  std::uint64_t v = 0;
  WCQ_CHECK(q.try_pop(&v, seed) && v == 100 + kPops,
            "%s: last parked value lost", name);
  WCQ_CHECK(!q.try_pop(&v, seed), "%s: drained queue not empty", name);
  std::printf("  ok slow_no_prem_empty %s (%u stale-pos pops)\n", name,
              kPops);
}

// Two helpers and one stalled request, stepped deterministically. Each
// round the owner publishes a pop and stalls; two helpers then call
// help() on it in turn. The protocol outcome is asserted, not the
// scheduling: the first help finds the request pending and drives it
// to DoneOk, the second finds it terminal and changes nothing, and the
// owner harvests the value exactly once. (Concurrent helpers on one
// request are covered by the MPMC runs above, where every peer helps.)
template <bool Portable>
void test_two_helpers_one_request(const char* name) {
  using Access = WcqTestAccess<Portable>;
  constexpr int kRounds = 200;
  WcqQueueT<Portable> q(slow_opts(6, 2));
  auto owner = test::backend_handle(q);
  auto seed = test::backend_handle(q);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t want = 1000 + round;
    WCQ_CHECK(q.try_push(want, seed), "%s: seed push refused", name);
    Access::publish_stalled_pop(q, owner);
    WCQ_CHECK(Access::help(q, owner),
              "%s: round %d first help found no pending request", name,
              round);
    WCQ_CHECK(Access::done_ok(q, owner),
              "%s: round %d first help left the request unfinished", name,
              round);
    WCQ_CHECK(!Access::help(q, owner),
              "%s: round %d second help stepped a finished request", name,
              round);
    WCQ_CHECK(Access::done_ok(q, owner),
              "%s: round %d second help changed the outcome", name, round);
    std::uint64_t got = 0;
    WCQ_CHECK(Access::finish_pop(q, owner, &got),
              "%s: helped pop failed in round %d", name, round);
    WCQ_CHECK(got == want, "%s: round %d got %llu want %llu", name, round,
              (unsigned long long)got, (unsigned long long)want);
    std::uint64_t residue = 0;
    WCQ_CHECK(!q.try_pop(&residue, seed),
              "%s: round %d delivered %llu twice", name, round,
              (unsigned long long)residue);
  }
  std::printf("  ok slow_two_helpers  %s (%d rounds)\n", name, kRounds);
}

// No allocation after set-up (the first half of bounded memory): once
// the queue is built and every handle registered, four threads run a
// seeded push/pop mix on a 32-slot ring, which bursts of up to 64
// fill and drain, and mem's allocation count must not move. Backends
// with bursts (wCQ) mix in try_push_n/try_pop_n of 1-64 values. In
// the all-slow build this mix also pins a fixed slow-path defect: a
// dequeue scan that got ahead of Head never finished here.
template <typename B>
void no_alloc_after_setup(const char* name, const options& opt) {
  constexpr unsigned kThreads = 4;
  const std::uint64_t ops = test::env_ops(5000);
  B q(options{opt}.order(5).max_threads(kThreads));
  std::vector<typename B::Handle> hs;
  for (unsigned t = 0; t < kThreads; ++t) hs.push_back(test::backend_handle(q));
  const std::uint64_t before = mem::stats().total_allocs;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
      std::uint64_t vs[kBatchChunk];
      for (std::uint64_t i = 0; i < ops; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::size_t n = 1 + (x >> 8) % kBatchChunk;
        const bool push = (x & 1) != 0;
        if constexpr (detail::PushBurst<B>) {
          if ((x & 2) != 0) {
            if (push) {
              std::fill(vs, vs + n, i);
              (void)q.try_push_n(vs, n, hs[t]);
            } else {
              (void)q.try_pop_n(vs, n, hs[t]);
            }
            continue;
          }
        }
        if (push) {
          (void)q.try_push(i, hs[t]);
        } else {
          (void)q.try_pop(vs, hs[t]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t after = mem::stats().total_allocs;
  WCQ_CHECK(after == before, "%s: %llu mem::alloc calls after set-up", name,
            (unsigned long long)(after - before));
  std::printf("  ok no_alloc          %s\n", name);
}

void test_no_alloc_after_setup() {
  no_alloc_after_setup<WcqQueue>("wcq", options{});
  no_alloc_after_setup<WcqPortableQueue>("wcq-portable", options{});
  // patience=1 puts contended wCQ ops on the slow path.
  no_alloc_after_setup<WcqQueue>("wcq (patience 1)", slow_opts(5, 4));
  no_alloc_after_setup<WcqPortableQueue>("wcq-portable (patience 1)",
                                         slow_opts(5, 4));
  no_alloc_after_setup<ScqQueue>("scq", options{});
  no_alloc_after_setup<NcqQueue>("ncq", options{});
  no_alloc_after_setup<CcqQueue>("ccq", options{});
}

}  // namespace

int main() {
  test_word_cas_width<false>("wcq");
  test_word_cas_width<true>("wcq-portable");
  test_slow_fifo<false>("wcq");
  test_slow_fifo<true>("wcq-portable");
  test_slow_empty_full<false>("wcq");
  test_slow_empty_full<true>("wcq-portable");
  test_slow_mpmc<false>("wcq", 3, 3, /*bursts=*/false);
  test_slow_mpmc<true>("wcq-portable", 2, 2, /*bursts=*/false);
  test_slow_mpmc<false>("wcq", 3, 3, /*bursts=*/true);
  test_slow_mpmc<true>("wcq-portable", 2, 2, /*bursts=*/true);
  test_no_premature_empty<false>("wcq");
  test_no_premature_empty<true>("wcq-portable");
  test_two_helpers_one_request<false>("wcq");
  test_two_helpers_one_request<true>("wcq-portable");
  test_no_alloc_after_setup();
  return 0;
}
