// wcq::sharded correctness: the queue-of-queues layer's own contract
// (per-shard FIFO, relaxed cross-shard order, global FIFO with one
// shard), both picker policies,
// the batch API's edge cases (partial fills, zero spans, boxed
// payloads and their accounting, a throwing copy mid-chunk, sentinel
// refusal, chunking), constructor validation,
// handle churn over recycled sub-handle rows, and a registration that
// fails half-way through the shards. The shared battery
// (fifo/empty_full/mpmc/churn) also runs the sharded adapters; this
// file covers what those generic checks cannot see.
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "boxed_batch_checks.hpp"
#include "queue_test_common.hpp"
#include "wcq/faa_queue.hpp"
#include "wcq/lcrq.hpp"
#include "wcq/mem.hpp"
#include "wcq/sharded.hpp"

namespace {

using namespace wcq;

constexpr shard_policy kAllPolicies[] = {
    shard_policy::round_robin,
    shard_policy::sticky,
};

const char* policy_name(shard_policy p) {
  return p == shard_policy::sticky ? "sticky" : "round_robin";
}

// Each shard's contents, read by draining it through a backend handle
// (the queue is left empty).
std::vector<std::vector<std::uint64_t>> drain_shards(
    sharded<std::uint64_t>& q) {
  auto& set = q.backend();
  std::vector<std::vector<std::uint64_t>> held(set.shard_count());
  for (unsigned s = 0; s < set.shard_count(); ++s) {
    auto bh = test::backend_handle(set.shard(s));
    std::uint64_t v = 0;
    while (set.shard(s).try_pop(&v, bh)) held[s].push_back(v);
  }
  return held;
}

// MPMC no-loss/no-duplication across shards, every policy, as
// test::test_mpmc runs. Order and the empty-answer witness are
// deliberately unchecked: cross-shard order is relaxed by contract.
void test_mpmc_all_policies() {
  using Q = sharded<std::uint64_t>;
  for (const auto pol : kAllPolicies) {
    test::MpmcRun<Q> run;
    run.opt = options{}.order(10).shards(4).shard_policy(pol);
    run.linearizable = false;
    const std::string name = std::string("sharded/") + policy_name(pol);
    test::test_mpmc<Q>(name.c_str(), 3, 3, test::env_ops(8000), run);
  }
}

// Per-shard FIFO: values one handle pushes into one shard come back in
// push order. Sticky pins the whole sequence to the handle's home
// shard, making the layer's strongest ordering claim directly
// checkable through the public surface.
void test_per_shard_fifo_sticky() {
  sharded<std::uint64_t> q(
      options{}.order(12).shards(4).shard_policy(shard_policy::sticky));
  auto h = q.get_handle();
  const std::uint64_t n = 500;  // fits one shard (order 12/4 = 1024)
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "sticky push %llu refused",
              (unsigned long long)i);
  }
  // Exactly one shard is non-empty, and it holds everything in push
  // order.
  unsigned loaded = 0;
  for (const auto& held : drain_shards(q)) {
    if (held.empty()) continue;
    ++loaded;
    WCQ_CHECK(held.size() == n, "sticky scattered: a shard holds %zu of %llu",
              held.size(), (unsigned long long)n);
    for (std::uint64_t i = 0; i < n; ++i) {
      WCQ_CHECK(held[i] == i, "sticky shard FIFO broken at %llu",
                (unsigned long long)i);
    }
  }
  WCQ_CHECK(loaded == 1, "sticky touched %u shards", loaded);
  // Same handle, aligned home: exact FIFO back out.
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "sticky re-push %llu refused",
              (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == i, "sticky FIFO broken at %llu",
              (unsigned long long)i);
  }
  std::printf("  ok sharded_fifo      sticky per-shard order\n");
}

// Sticky rebalance: filling the home shard must move the handle to a
// new home (push keeps succeeding past one shard's capacity), and a
// pop on an empty home must find the data wherever it lives.
void test_sticky_rebalance() {
  // 4 shards x 16 slots each
  sharded<std::uint64_t> q(
      options{}.order(6).shards(4).shard_policy(shard_policy::sticky));
  auto h = q.get_handle();
  // Full capacity must be reachable despite per-shard rings of 16:
  // each overflow rebalances the home to the shard that accepted.
  for (std::uint64_t i = 0; i < 64; ++i) {
    WCQ_CHECK(q.try_push(i, h), "rebalance push %llu refused",
              (unsigned long long)i);
  }
  WCQ_CHECK(!q.try_push(999, h), "push past total capacity succeeded");
  unsigned non_empty = 0;
  for (const auto& held : drain_shards(q)) non_empty += !held.empty();
  WCQ_CHECK(non_empty == 4, "rebalance-on-full reached %u of 4 shards",
            non_empty);

  // Refill, then a second handle (different home) drains everything:
  // rebalance-on-empty walks it across all shards.
  for (std::uint64_t i = 0; i < 64; ++i) {
    WCQ_CHECK(q.try_push(i, h), "refill push %llu refused",
              (unsigned long long)i);
  }
  auto h2 = q.get_handle();
  unsigned got = 0;
  while (q.try_pop(h2)) ++got;
  WCQ_CHECK(got == 64, "rebalance-on-empty drained %u of 64", got);
  std::printf("  ok sharded_rebalance sticky full/empty\n");
}

// Round-robin ordering. A lone handle's aligned push/pop cursors give
// exact FIFO across 4 shards. With shards(1) the order is global:
// values two handles push alternately come back, through a third
// handle, in the one push order.
void test_round_robin_fifo() {
  sharded<std::uint64_t> q(options{}.order(10).shards(4));
  auto h = q.get_handle();
  const std::uint64_t n = 700;
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "round_robin push %llu refused",
              (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == i, "round_robin FIFO broken at %llu",
              (unsigned long long)i);
  }

  sharded<std::uint64_t> one(options{}.order(10).shards(1));
  auto p0 = one.get_handle();
  auto p1 = one.get_handle();
  auto c = one.get_handle();
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(one.try_push(i, i % 2 ? p1 : p0), "shards(1) push refused");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = one.try_pop(c);
    WCQ_CHECK(v && *v == i, "shards(1) global FIFO broken at %llu: got %llu",
              (unsigned long long)i, (unsigned long long)(v ? *v : ~0ull));
  }
  std::printf("  ok sharded_rr_fifo   per handle; shards(1) global\n");
}

// Batch edges: zero-size spans, spans above kBatchChunk (chunking),
// partial acceptance at capacity, and partial pops at drain.
void test_batch_edges() {
  sharded<std::uint64_t> q(options{}.order(8).shards(4));
  auto h = q.get_handle();

  std::uint64_t none = 0;
  WCQ_CHECK(q.try_push_n(&none, 0, h) == 0, "zero-size push_n");
  WCQ_CHECK(q.try_pop_n(&none, 0, h) == 0, "zero-size pop_n");

  // 200 values through kBatchChunk=64 chunks.
  std::vector<std::uint64_t> in(200), out(200);
  for (std::uint64_t i = 0; i < 200; ++i) in[i] = i;
  WCQ_CHECK(q.try_push_n(in.data(), 200, h) == 200, "chunked push_n");
  std::size_t got = 0;
  while (got < 200) {
    const std::size_t k = q.try_pop_n(out.data() + got, 200 - got, h);
    WCQ_CHECK(k > 0, "pop_n stalled at %zu of 200", got);
    got += k;
  }
  std::vector<bool> seen(200, false);
  for (std::uint64_t v : out) {
    WCQ_CHECK(v < 200 && !seen[v], "batch lost/duplicated %llu",
              (unsigned long long)v);
    seen[v] = true;
  }
  WCQ_CHECK(q.try_pop_n(out.data(), 200, h) == 0, "drained pop_n not 0");

  // Partial acceptance: capacity 256, offer 300 — exactly 256 land.
  std::vector<std::uint64_t> big(300, 7);
  WCQ_CHECK(q.try_push_n(big.data(), 300, h) == 256,
            "partial push_n at capacity");
  WCQ_CHECK(q.try_push(1, h) == false, "queue should be full");
  got = 0;
  while (got < 256) got += q.try_pop_n(out.data(), 200, h);
  WCQ_CHECK(got == 256, "partial drain got %zu", got);
  std::printf("  ok sharded_batch     edges (zero/chunk/partial)\n");
}

// Boxed payloads batch exactly like inline ones: every value goes
// through slot_codec's heap box, refused boxes are dropped (ASan
// leak-checks this binary), and teardown drains live boxes.
void test_batch_boxed() {
  sharded<std::string> q(options{}.order(8).shards(2));
  auto h = q.get_handle();
  std::vector<std::string> in, out(64);
  for (int i = 0; i < 64; ++i) in.push_back("value-" + std::to_string(i));
  WCQ_CHECK(q.try_push_n(in.data(), in.size(), h) == 64, "boxed push_n");
  std::size_t got = 0;
  while (got < 64) {
    const std::size_t k = q.try_pop_n(out.data() + got, 64 - got, h);
    WCQ_CHECK(k > 0, "boxed pop_n stalled");
    got += k;
  }
  std::vector<bool> seen(64, false);
  for (const auto& s : out) {
    WCQ_CHECK(s.rfind("value-", 0) == 0, "boxed payload corrupted: %s",
              s.c_str());
    const int i = std::atoi(s.c_str() + 6);
    WCQ_CHECK(!seen[i], "boxed duplicate %d", i);
    seen[i] = true;
  }
  // Overfill: capacity 256 total; refused boxes must not leak.
  std::vector<std::string> flood(300, std::string("flood"));
  const std::size_t ok = q.try_push_n(flood.data(), flood.size(), h);
  WCQ_CHECK(ok == 256, "boxed overfill accepted %zu", ok);
  // Leave the queue non-empty: the destructor must drop live boxes.
  std::printf("  ok sharded_boxed     batch over slot_codec boxes\n");
}

// FAA reserves its top two slot patterns as EMPTY/TAKEN sentinels; an
// inline value colliding with them must be refused — mid-batch — with
// everything before it accepted and nothing after it lost.
void test_batch_sentinel_refusal() {
  sharded<std::uint64_t, FaaQueue> q(options{}.shards(2));
  auto h = q.get_handle();
  std::uint64_t vs[5] = {1, 2, ~std::uint64_t{0}, 4, 5};
  WCQ_CHECK(q.try_push_n(vs, 5, h) == 2,
            "sentinel must stop the batch after the accepted prefix");
  std::uint64_t out[5] = {};
  WCQ_CHECK(q.try_pop_n(out, 5, h) == 2 && out[0] == 1 && out[1] == 2,
            "prefix before sentinel lost");
  // Single-op refusal for comparison (same contract as queue<T,Faa>).
  WCQ_CHECK(!q.try_push(~std::uint64_t{0}, h), "sentinel push accepted");
  std::printf("  ok sharded_sentinel  FAA reserved-pattern refusal\n");
}

// Constructor validation: refuse, never clamp.
void test_validation_throws() {
  auto throws = [](auto make) {
    try {
      make();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  WCQ_CHECK(throws([] { sharded<std::uint64_t> q(options{}.shards(3)); }),
            "non-power-of-two shards must throw");
  WCQ_CHECK(throws([] { sharded<std::uint64_t> q(options{}.shards(512)); }),
            "shards > 256 must throw");
  WCQ_CHECK(
      throws([] { sharded<std::uint64_t> q(options{}.shards(8).order(3)); }),
      "order <= log2(shards) must throw");
  // The boundary cases that must NOT throw.
  sharded<std::uint64_t> ok1(options{}.shards(1).order(1));
  sharded<std::uint64_t> ok2(options{}.shards(4).order(3));
  std::printf("  ok sharded_validate  invalid_argument on bad knobs\n");
}

// Handle churn: sharded handles hold one sub-handle per shard; waves
// of threads far past max_threads must recycle whole rows, and
// exhaustion must be a reportable error, not an abort.
void test_handle_churn() {
  constexpr unsigned kMaxThreads = 4;
  sharded<std::uint64_t> q(
      options{}.order(8).shards(4).max_threads(kMaxThreads));
  for (unsigned wave = 0; wave < 8; ++wave) {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kMaxThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < 200; ++i) {
          while (!q.try_push(t * 1000 + i, h)) std::this_thread::yield();
          while (!q.try_pop(h)) std::this_thread::yield();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  // Exhaustion at the boundary: kMaxThreads rows live -> next is an
  // error; releasing one row frees a slot in every shard.
  {
    std::vector<decltype(q.get_handle())> held;
    for (unsigned i = 0; i < kMaxThreads; ++i) held.push_back(q.get_handle());
    WCQ_CHECK(!q.try_get_handle().has_value(),
              "exhaustion must be nullopt, not abort");
    bool threw = false;
    try {
      (void)q.get_handle();
    } catch (const std::runtime_error&) {
      threw = true;
    }
    WCQ_CHECK(threw, "get_handle must throw on exhaustion");
    held.pop_back();
    WCQ_CHECK(q.try_get_handle().has_value(),
              "released row must free a slot in every shard");
  }
  std::printf("  ok sharded_churn     %u waves over max_threads=%u\n", 8u,
              kMaxThreads);
}

// A registration that fails half-way: with one sharded handle held and
// shard 3's last slot taken directly, try_get_handle takes slots on
// shards 0-2 and then fails. It must give those back and free its row:
// mem's live bytes return to their value from before the call, and
// once shard 3's slot is free a new sharded handle succeeds, which it
// cannot if shards 0-2 kept the failed call's slots.
template <typename Backend>
void test_partial_registration(const char* name) {
  using Q = sharded<std::uint64_t, Backend>;
  Q q(options{}.order(8).shards(4).max_threads(2));
  auto held = q.get_handle();
  {
    auto last = test::backend_handle(q.backend().shard(3));
    const std::uint64_t live = mem::stats().live_bytes;
    WCQ_CHECK(!q.try_get_handle().has_value(),
              "%s: registration succeeded with shard 3 full", name);
    WCQ_CHECK(mem::stats().live_bytes == live,
              "%s: failed registration leaked %lld bytes", name,
              (long long)(mem::stats().live_bytes - live));
  }
  WCQ_CHECK(q.try_get_handle().has_value(),
            "%s: a failed registration kept slots on shards 0-2", name);
  std::printf("  ok sharded_partial   %s\n", name);
}

}  // namespace

int main() {
  test_mpmc_all_policies();
  test_per_shard_fifo_sticky();
  test_sticky_rebalance();
  test_round_robin_fifo();
  test_batch_edges();
  test_batch_boxed();
  test::test_batch_box_accounting<sharded<test::Msg40>,
                                  sharded<test::PerValueMsg40>>(
      "sharded", options{}.shards(2));
  test::test_batch_refused_chunk<sharded<test::Msg40>>("sharded",
                                                       options{}.shards(2));
  test::test_batch_pop_mixed_boxes<sharded<test::Msg40>>("sharded",
                                                         options{}.shards(2));
  test::test_batch_slab_two_handles<sharded<test::Msg40>>(
      "sharded", options{}.shards(2));
  test::test_batch_throwing_copy<sharded<test::ThrowingMsg>>(
      "sharded", options{}.shards(2));
  test_batch_sentinel_refusal();
  test_validation_throws();
  test_handle_churn();
  test_partial_registration<WcqQueue>("wcq");
  test_partial_registration<LcrqQueue>("lcrq");
  return 0;
}
