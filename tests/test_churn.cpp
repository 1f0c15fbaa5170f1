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
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
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

// Waves of producer/consumer threads over ONE queue, each a
// test::test_mpmc run (ledger, per-producer order, empty-answer
// witness). Each wave fully joins (releasing its handles) before the
// next starts; cumulative thread count is far above max_threads, which
// the old surface would have abort()ed on at wave 2.
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

  std::string wave_name;
  test::MpmcRun<Q> run;
  run.linearizable = std::strncmp(name, "sharded", 7) != 0;
  // A reader polling the counters while the wave's handles bump them:
  // every field must be monotone between polls. Under TSan this is the
  // race net for the owner-only counter bump.
  run.beside = [&](Q& q, const std::atomic<bool>& done) {
    std::vector<std::uint64_t> last = monotone_counters(q);
    do {
      const std::vector<std::uint64_t> now = monotone_counters(q);
      for (std::size_t i = 0; i < now.size(); ++i) {
        WCQ_CHECK(now[i] >= last[i],
                  "%s: counter %zu went back from %llu to %llu",
                  wave_name.c_str(), i, (unsigned long long)last[i],
                  (unsigned long long)now[i]);
      }
      last = now;
      std::this_thread::yield();
    } while (!done.load(std::memory_order_acquire));
  };
  test::MpmcCalls calls;
  for (unsigned wave = 0; wave < kWaves; ++wave) {
    wave_name = std::string(name) + " wave " + std::to_string(wave);
    const test::MpmcCalls c = test::test_mpmc(
        q, wave_name.c_str(), kProducers, kConsumers, per_producer, run);
    calls.pushes += c.pushes;
    calls.pops += c.pops;
  }

  // Stats must stay consistent across recycled slots: every push/pop
  // attempt of every wave landed in exactly one fast/slow counter,
  // regardless of which (reused) ThreadRec slot recorded it.
  if constexpr (requires { q.stats(); }) {
    const auto st = q.stats();
    WCQ_CHECK(st.fast_enqueues + st.slow_enqueues == calls.pushes,
              "%s: stats enqueues %llu != attempts %llu", name,
              (unsigned long long)(st.fast_enqueues + st.slow_enqueues),
              (unsigned long long)calls.pushes);
    WCQ_CHECK(st.fast_dequeues + st.slow_dequeues == calls.pops,
              "%s: stats dequeues %llu != attempts %llu", name,
              (unsigned long long)(st.fast_dequeues + st.slow_dequeues),
              (unsigned long long)calls.pops);
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
//
// Two shapes, each on a fresh queue: 3 producers with 3 consumers,
// and 1 producer with 3 consumers. The second is paced (`wave`): its
// producer pushes 40 values, two and a half segments, then waits for
// the consumers to take them all, so the consumers meet an empty queue
// between waves and the witness gets empty answers to judge. A
// segment's push and pop (whose data access runs inside the second
// ring's enqueue) race each other there rather than a full segment.
// Only the 3x3 run must retire a segment: with one producer, whether
// a segment ever fills is up to the scheduler.
void lscq_segment_retirement(unsigned producers, unsigned consumers,
                             std::uint64_t per_producer,
                             std::uint64_t wave = 0) {
  const std::string name = "lscq order 4 " + std::to_string(producers) +
                           "x" + std::to_string(consumers);
  const bool must_retire = producers > 1;
  const auto mem_before = mem::stats().live_bytes;
  std::uint64_t retire_calls = 0;
  {
    using Q = harness::LscqAdapter;
    Q q(options{}.max_threads(producers + consumers).order(4));
    test::MpmcRun<Q> run;
    run.wave = wave;
    run.after = [&](Q& q) {
      const auto st = q.smr_stats();
      retire_calls = st.retire_calls;
      WCQ_CHECK(!must_retire || st.retire_calls > 0,
                "%s never retired a segment (drain path untested)",
                name.c_str());
      WCQ_CHECK(!must_retire || st.reclaimed_nodes > 0,
                "%s reclaimed nothing (%llu retires parked forever?)",
                name.c_str(), (unsigned long long)st.retire_calls);
      // Bound: every handle slot can park at most threshold segments,
      // plus one hazard-held segment per slot that scans could not free.
      const std::uint64_t slots = producers + consumers;
      WCQ_CHECK(st.retired_nodes <= slots * (2 * slots) + slots,
                "%s: parked segments exceed the amnesty bound: %llu",
                name.c_str(), (unsigned long long)st.retired_nodes);
    };
    test::test_mpmc(q, name.c_str(), producers, consumers, per_producer,
                    run);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "%s leaked %llu bytes of segments", name.c_str(),
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok churn_lscq_retire %s (%llu segment retires)\n",
              name.c_str(), (unsigned long long)retire_calls);
}

void test_lscq_segment_retirement() {
  lscq_segment_retirement(3, 3, test::env_ops(8000));
  lscq_segment_retirement(1, 3, test::env_ops(8000), /*wave=*/40);
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
