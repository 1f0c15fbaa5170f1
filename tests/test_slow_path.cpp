// Slow-path battery: every test here forces traffic through the CAS2
// note protocol, either with patience=1 (one fast attempt, then
// publish a request) or — when built with -DWCQ_ALL_SLOW, as the
// *_all_slow ctest variant does — with the fast path compiled out
// entirely, so literally every operation runs claim/commit/finalize.
//
// Covered: single-thread FIFO and empty/full through the slow path,
// MPMC no-loss/no-duplication with per-producer order, and two helpers
// stepping the SAME pending request in turn, with the operation
// completing exactly once.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue_test_common.hpp"
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
  auto h = q.get_handle();
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
  auto h = q.get_handle();
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

template <bool Portable>
void test_slow_mpmc(const char* name, unsigned producers,
                    unsigned consumers) {
  const std::uint64_t per_producer = test::env_ops(5000);
  WcqQueueT<Portable> q(slow_opts(8, producers + consumers + 2));

  const std::uint64_t total = per_producer * producers;
  std::vector<std::atomic<std::uint32_t>> seen(total);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> order_ok{true};

  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.get_handle();
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint64_t v = p * per_producer + i;
        while (!q.try_push(v, h)) std::this_thread::yield();
      }
    });
  }
  for (unsigned c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      auto h = q.get_handle();
      std::vector<std::uint64_t> last(producers, 0);
      std::vector<bool> any(producers, false);
      while (consumed.load(std::memory_order_acquire) < total) {
        std::uint64_t v = 0;
        if (!q.try_pop(&v, h)) {
          std::this_thread::yield();
          continue;
        }
        WCQ_CHECK(v < total, "%s: out-of-range value %llu", name,
                  (unsigned long long)v);
        seen[v].fetch_add(1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_acq_rel);
        const std::uint64_t p = v / per_producer;
        const std::uint64_t seq = v % per_producer;
        if (any[p] && seq <= last[p]) {
          order_ok.store(false, std::memory_order_relaxed);
        }
        last[p] = seq;
        any[p] = true;
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::uint64_t v = 0; v < total; ++v) {
    const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
    WCQ_CHECK(count == 1, "%s: value %llu seen %u times (lost/duplicated)",
              name, (unsigned long long)v, count);
  }
  WCQ_CHECK(order_ok.load(), "%s: per-producer FIFO order violated", name);

  // Under ALL_SLOW every operation is structurally a slow op, so the
  // counter check is deterministic. With patience=1 it depends on real
  // CAS contention, which a single-core scheduler may never produce —
  // there the deterministic slow-path coverage comes from the
  // stalled-owner tests below, and we only report the observed rate.
  const WcqStats st = q.stats();
#if defined(WCQ_ALL_SLOW)
  WCQ_CHECK(st.slow_enqueues + st.slow_dequeues > 0,
            "%s: all-slow build never took the slow path", name);
#endif
  std::printf("  ok slow_mpmc %ux%u    %s (%llu slow ops)\n", producers,
              consumers, name,
              (unsigned long long)(st.slow_enqueues + st.slow_dequeues));
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
  auto seed = q.get_handle();

  std::vector<typename WcqQueueT<Portable>::Handle> stalled;
  stalled.reserve(kPops);
  for (unsigned i = 0; i < kPops; ++i) stalled.push_back(q.get_handle());

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
  auto owner = q.get_handle();
  auto seed = q.get_handle();
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

}  // namespace

int main() {
  test_slow_fifo<false>("wcq");
  test_slow_fifo<true>("wcq-portable");
  test_slow_empty_full<false>("wcq");
  test_slow_empty_full<true>("wcq-portable");
  test_slow_mpmc<false>("wcq", 3, 3);
  test_slow_mpmc<true>("wcq-portable", 2, 2);
  test_no_premature_empty<false>("wcq");
  test_no_premature_empty<true>("wcq-portable");
  test_two_helpers_one_request<false>("wcq");
  test_two_helpers_one_request<true>("wcq-portable");
  return 0;
}
