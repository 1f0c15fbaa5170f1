// Thread-churn and handle-recycling coverage: the scenario the old
// surface could not survive. make_handle() used to burn one ThreadRec
// slot per *lifetime* registration and abort() past max_threads; with
// RAII handles the slot returns to a free list on destruction, so
// max_threads bounds concurrent participants only. These tests spawn
// far more threads over a queue's lifetime than max_threads allows
// concurrently, run MPMC traffic in every wave, and check no loss, no
// duplication, no abort, consistent stats, and a real (non-fatal)
// error on genuine exhaustion.
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/mem.hpp"
#include "wcq/queue.hpp"
#include "wcq/wcq.hpp"

namespace {

using namespace wcq;

// The counters a queue exposes that only ever grow: stats() (wCQ) and
// smr_stats()'s cumulative fields (SMR backends). Each is summed from
// per-slot counters that only the slot holder writes.
template <typename Q>
std::vector<std::uint64_t> monotone_counters(const Q& q) {
  std::vector<std::uint64_t> c;
  if constexpr (requires { q.stats(); }) {
    const auto s = q.stats();
    c.insert(c.end(), {s.fast_enqueues, s.slow_enqueues, s.fast_dequeues,
                       s.slow_dequeues, s.helps});
  }
  if constexpr (requires { q.smr_stats(); }) {
    const auto s = q.smr_stats();
    c.insert(c.end(), {s.reclaimed_nodes, s.retire_calls, s.scans});
  }
  return c;
}

// Waves of producer/consumer threads over ONE queue. Each wave fully
// joins (releasing its handles) before the next starts; cumulative
// thread count is far above max_threads, which the old surface would
// have abort()ed on at wave 2.
template <concepts::Queue Q>
void test_churn_waves(const char* name) {
  constexpr unsigned kMaxThreads = 8;
  constexpr unsigned kWaves = 6;
  constexpr unsigned kProducers = 3;
  constexpr unsigned kConsumers = 3;
  static_assert(kProducers + kConsumers <= kMaxThreads);
  static_assert(kWaves * (kProducers + kConsumers) > 4 * kMaxThreads,
                "churn must exceed max_threads several times over");

  const std::uint64_t per_producer = test::env_ops(4000);
  Q q(options{}.max_threads(kMaxThreads).order(8));

  const std::uint64_t wave_total = per_producer * kProducers;
  std::atomic<std::uint64_t> push_attempts{0};
  std::atomic<std::uint64_t> pop_attempts{0};

  for (unsigned wave = 0; wave < kWaves; ++wave) {
    std::vector<std::atomic<std::uint32_t>> seen(wave_total);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t> consumed{0};

    // A reader polling the counters while the wave's handles bump
    // them: every field must be monotone between polls. Under TSan
    // this is the race net for the owner-only counter bump.
    std::atomic<bool> wave_done{false};
    std::thread poller([&] {
      std::vector<std::uint64_t> last = monotone_counters(q);
      do {
        const std::vector<std::uint64_t> now = monotone_counters(q);
        for (std::size_t i = 0; i < now.size(); ++i) {
          WCQ_CHECK(now[i] >= last[i],
                    "%s: wave %u counter %zu went back from %llu to %llu",
                    name, wave, i, (unsigned long long)last[i],
                    (unsigned long long)now[i]);
        }
        last = now;
        std::this_thread::yield();
      } while (!wave_done.load(std::memory_order_acquire));
    });

    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (unsigned p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        auto h = q.get_handle();  // fresh registration every wave
        std::uint64_t attempts = 0;
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          const std::uint64_t v = p * per_producer + i;
          ++attempts;
          while (!q.try_push(v, h)) {
            ++attempts;
            std::this_thread::yield();
          }
        }
        push_attempts.fetch_add(attempts, std::memory_order_relaxed);
      });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        auto h = q.get_handle();
        std::uint64_t attempts = 0;
        while (consumed.load(std::memory_order_acquire) < wave_total) {
          ++attempts;
          const auto v = q.try_pop(h);
          if (!v) {
            std::this_thread::yield();
            continue;
          }
          WCQ_CHECK(*v < wave_total, "%s: wave %u out-of-range value %llu",
                    name, wave, (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
        pop_attempts.fetch_add(attempts, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
    wave_done.store(true, std::memory_order_release);
    poller.join();

    for (std::uint64_t v = 0; v < wave_total; ++v) {
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      WCQ_CHECK(count == 1,
                "%s: wave %u value %llu seen %u times (lost/duplicated)",
                name, wave, (unsigned long long)v, count);
    }
  }

  // Stats must stay consistent across recycled slots: every push/pop
  // attempt of every wave landed in exactly one fast/slow counter,
  // regardless of which (reused) ThreadRec slot recorded it.
  if constexpr (requires { q.stats(); }) {
    const auto st = q.stats();
    WCQ_CHECK(st.fast_enqueues + st.slow_enqueues ==
                  push_attempts.load(std::memory_order_relaxed),
              "%s: stats enqueues %llu != attempts %llu", name,
              (unsigned long long)(st.fast_enqueues + st.slow_enqueues),
              (unsigned long long)push_attempts.load());
    WCQ_CHECK(st.fast_dequeues + st.slow_dequeues ==
                  pop_attempts.load(std::memory_order_relaxed),
              "%s: stats dequeues %llu != attempts %llu", name,
              (unsigned long long)(st.fast_dequeues + st.slow_dequeues),
              (unsigned long long)pop_attempts.load());
  }
  std::printf("  ok churn_waves       %s (%u threads over max_threads=%u)\n",
              name, kWaves * (kProducers + kConsumers), kMaxThreads);
}

// LSCQ churn over order-4 segments (16 values each): producers outrun
// a segment every few hundred ops, so close(), the sterility drain,
// and concurrent segment retirement all run under contention — under
// TSan this is the race net for the whole finalization path. The
// parked-segment count must stay under the SMR amnesty bound and the
// teardown must return every segment to the counting allocator.
void test_lscq_segment_retirement() {
  constexpr unsigned kProducers = 3;
  constexpr unsigned kConsumers = 3;
  const std::uint64_t per_producer = test::env_ops(8000);
  const std::uint64_t total = per_producer * kProducers;

  const auto mem_before = mem::stats().live_bytes;
  std::uint64_t retire_calls = 0;
  {
    harness::LscqAdapter q(
        options{}.max_threads(kProducers + kConsumers).order(4));

    std::vector<std::atomic<std::uint32_t>> seen(total);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t> consumed{0};

    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (unsigned p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          const std::uint64_t v = p * per_producer + i;
          while (!q.try_push(v, h)) std::this_thread::yield();
        }
      });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        auto h = q.get_handle();
        while (consumed.load(std::memory_order_acquire) < total) {
          const auto v = q.try_pop(h);
          if (!v) {
            std::this_thread::yield();
            continue;
          }
          WCQ_CHECK(*v < total, "lscq: out-of-range value %llu",
                    (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (auto& t : threads) t.join();

    for (std::uint64_t v = 0; v < total; ++v) {
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      WCQ_CHECK(count == 1,
                "lscq: value %llu seen %u times (lost/duplicated)",
                (unsigned long long)v, count);
    }

    const auto st = q.smr_stats();
    retire_calls = st.retire_calls;
    WCQ_CHECK(st.retire_calls > 0,
              "lscq churn never retired a segment (drain path untested)");
    WCQ_CHECK(st.reclaimed_nodes > 0,
              "lscq churn reclaimed nothing (%llu retires parked forever?)",
              (unsigned long long)st.retire_calls);
    // Bound: every handle slot can park at most threshold segments,
    // plus one hazard-held segment per slot that scans could not free.
    const std::uint64_t slots = kProducers + kConsumers;
    WCQ_CHECK(st.retired_nodes <= slots * (2 * slots) + slots,
              "parked segments exceed the amnesty bound: %llu",
              (unsigned long long)st.retired_nodes);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "LSCQ leaked %llu bytes of segments",
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok churn_lscq_retire (%llu segment retires)\n",
              (unsigned long long)retire_calls);
}

// Genuine exhaustion (max_threads handles simultaneously live) must be
// a reportable error — nullopt from try_get_handle, an exception from
// get_handle — never an abort; and releasing one handle must make a
// slot available again.
template <concepts::Queue Q>
void test_exhaustion_is_an_error(const char* name) {
  Q q(options{}.max_threads(2).order(4));

  auto h1 = q.try_get_handle();
  auto h2 = q.try_get_handle();
  WCQ_CHECK(h1.has_value() && h2.has_value(),
            "%s: first max_threads handles must be granted", name);

  WCQ_CHECK(!q.try_get_handle().has_value(),
            "%s: try_get_handle must report exhaustion as nullopt", name);
  bool threw = false;
  try {
    (void)q.get_handle();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  WCQ_CHECK(threw, "%s: get_handle must throw on exhaustion, not abort",
            name);

  // The live handles still work at the exhaustion boundary.
  WCQ_CHECK(q.try_push(7, *h1), "%s: push through live handle refused",
            name);
  const auto v = q.try_pop(*h2);
  WCQ_CHECK(v && *v == 7, "%s: pop through live handle failed", name);

  h1.reset();  // RAII release frees the slot...
  auto h3 = q.try_get_handle();
  WCQ_CHECK(h3.has_value(), "%s: released slot must be reusable", name);
  std::printf("  ok churn_exhaustion  %s\n", name);
}

// Serial churn far past max_threads: every iteration registers and
// releases one handle; the old surface aborts at iteration 4.
void test_serial_handle_recycling() {
  queue<std::uint64_t> q(options{}.max_threads(4).order(4));
  for (unsigned i = 0; i < 1000; ++i) {
    auto h = q.get_handle();
    WCQ_CHECK(q.try_push(i, h), "serial push %u refused", i);
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == i, "serial roundtrip %u failed", i);
  }
  const auto st = q.stats();
  WCQ_CHECK(st.fast_enqueues + st.slow_enqueues == 1000,
            "serial stats lost ops across recycling: %llu",
            (unsigned long long)(st.fast_enqueues + st.slow_enqueues));
  std::printf("  ok churn_serial      (1000 handles over max_threads=4)\n");
}

// Handles are movable RAII: moving must transfer the registration, and
// the moved-from handle's destruction must not double-release.
template <concepts::Queue Q>
void test_handle_move_semantics(const char* name) {
  Q q(options{}.max_threads(2).order(4));
  auto h1 = q.get_handle();
  auto h2 = std::move(h1);
  WCQ_CHECK(q.try_push(11, h2), "%s: push through moved-to handle refused",
            name);
  const auto v = q.try_pop(h2);
  WCQ_CHECK(v && *v == 11, "%s: pop through moved-to handle failed", name);
  {
    auto h3 = q.get_handle();  // second (and last) slot
    WCQ_CHECK(!q.try_get_handle().has_value(), "%s: expected exhaustion",
              name);
    h2 = std::move(h3);  // move-assign releases h2's old slot
    auto h4 = q.try_get_handle();
    WCQ_CHECK(h4.has_value(), "%s: move-assign must release the old slot",
              name);
  }
  std::printf("  ok churn_move        %s\n", name);
}

// Both slot-limit checks, for a lineup entry whose handle slots can run
// out (SCQ, NCQ and CCQ hand out empty handles without limit).
template <concepts::Queue Q>
void test_slot_limits(const char* name) {
  test_exhaustion_is_an_error<Q>(name);
  test_handle_move_semantics<Q>(name);
}

}  // namespace

int main() {
  using namespace wcq::harness;
  test_churn_waves<WcqAdapter>("wcq");
  test_churn_waves<WcqPortableAdapter>("wcq-portable");
  // Stateless-handle backends must survive the same churn shape.
  test_churn_waves<ScqAdapter>("scq");
  test_churn_waves<NcqAdapter>("ncq");
  test_churn_waves<CcqAdapter>("ccq");
  // SMR-backed backends: recycling a handle slot also hands its
  // hazard/epoch strip and parked retire list to the next wave.
  test_churn_waves<MsqAdapter>("msq");
  test_churn_waves<FaaAdapter>("faa");
  test_churn_waves<LcrqAdapter>("lcrq");
  // LSCQ: every wave also churns segments through close/drain/retire.
  test_churn_waves<LscqAdapter>("lscq");
  test_lscq_segment_retirement();
  // Sharded handles register with every shard at once; each wave must
  // recycle a full row of sub-handle slots, not just one.
  test_churn_waves<ShardedWcqAdapter>("sharded-wcq");
  test_churn_waves<ShardedLcrqAdapter>("sharded-lcrq");
  test_slot_limits<WcqAdapter>("wcq");
  test_slot_limits<WcqPortableAdapter>("wcq-portable");
  test_slot_limits<LscqAdapter>("lscq");
  test_slot_limits<LcrqAdapter>("lcrq");
  test_slot_limits<FaaAdapter>("faa");
  test_slot_limits<MsqAdapter>("msq");
  test_slot_limits<ShardedWcqAdapter>("sharded-wcq");
  test_slot_limits<ShardedLcrqAdapter>("sharded-lcrq");
  test_serial_handle_recycling();
  return 0;
}
