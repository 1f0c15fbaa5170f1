// Soak/liveness test: MPMC churn under randomized preemption injection
// with a starvation watchdog asserting that no queue operation stays
// in flight past a generous wall-clock bound.
//
// wCQ's guarantee is per-operation progress in bounded steps. Steps
// are not directly observable from outside, so the test makes the
// adversary explicit — workers randomly sched-yield in bursts or burn
// busy-spin windows between ops while the box is oversubscribed (more
// workers than cores), which preempts *other* workers mid-operation —
// and the watchdog converts "an op has been in flight for many
// seconds" into an attributed abort. A livelocked helper protocol or
// a lost request record shows up here as a watchdog violation (or the
// accounting check failing), not as a silent ctest timeout.
//
// Four phases: default options (fast path dominant), then patience=1
// with help_delay=1 on a tiny ring, where every operation runs the
// CAS2 note-based cooperative slow path under helping traffic; then
// both again on a 2-value wCQ with half the ops try_push_n/try_pop_n
// bursts of 1-64 values, where a dequeue burst's held tickets meet
// re-armed thresholds most often (a burst that spent the threshold on
// each fruitless ticket left values behind a false empty there).
//
// Sized for ctest by default; the nightly TSan lane turns the knobs,
// each a whole number read by harness::env_count (exit 2 naming the
// variable unless it is an integer in [1, cap]; caps in
// queue_test_common.hpp):
//   WCQ_SOAK_SECONDS   total soak wall-clock across phases, in whole
//                      seconds (def 2, nightly 300; cap one day)
//   WCQ_SOAK_THREADS   workers per phase (def 4, nightly 8; cap 256)
//   WCQ_SOAK_STALL_MS  per-op in-flight bound (def 10000; cap one hour)
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/spin.hpp"
#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/watchdog.hpp"
#include "queue_test_common.hpp"

namespace {

using namespace wcq;

// `batch`: half the ops are try_push_n/try_pop_n of 1-64 values.
//
// Accounting is checked at a checkpoint every millisecond and at the
// end: the workers meet at a barrier while one of them drains the
// queue, which must then hold exactly the accepted pushes not yet
// popped — nothing lost, nothing invented, and no false empty (a spent
// threshold with values still queued) at any checkpoint.
template <concepts::Queue Q>
void soak_phase(const char* tag, const options& opts, unsigned threads,
                double seconds, std::uint64_t stall_ms, bool batch = false) {
  constexpr std::uint64_t kCheckpointNs = 1'000'000;
  Q q(opts);
  harness::StarvationWatchdog dog(
      threads, std::chrono::milliseconds(stall_ms), /*fatal=*/true);
  std::atomic<std::int64_t> held{0};  // accepted pushes not yet popped
  auto drain_h = q.get_handle();
  std::uint64_t checks = 0;
  const auto drain = [&]() noexcept {
    std::int64_t got = 0;
    while (q.try_pop(drain_h).has_value()) ++got;
    const std::int64_t want = held.exchange(0, std::memory_order_relaxed);
    WCQ_CHECK(got == want, "%s: check %llu drained %lld values, want %lld",
              tag, (unsigned long long)checks, (long long)got,
              (long long)want);
    ++checks;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(threads), drain);
  const std::uint64_t end_ns =
      harness::now_ns() +
      static_cast<std::uint64_t>(seconds * 1e9);

  dog.start();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto h = q.get_handle();
      Xoshiro256 rng(0x50ACu + t * 65537u);
      typename Q::value_type buf[kBatchChunk] = {};
      std::uint64_t next_check = harness::now_ns() + kCheckpointNs;
      for (std::uint64_t now; (now = harness::now_ns()) < end_ns;) {
        if (now >= next_check) {
          sync.arrive_and_wait();
          next_check = harness::now_ns() + kCheckpointNs;
        }
        // Preemption injection, between ops: a yield burst hands the
        // core to a peer mid-*its*-op on an oversubscribed box; a
        // busy-spin window simulates a stalled-but-running thread.
        if (rng.chance_pct(2)) {
          const unsigned burst = 1 + static_cast<unsigned>(rng.next_below(8));
          for (unsigned k = 0; k < burst; ++k) std::this_thread::yield();
        } else if (rng.chance_pct(1)) {
          spin_delay(rng.next_below(4000));
        }
        const std::size_t n =
            batch && rng.chance_pct(50) ? 1 + rng.next_below(kBatchChunk) : 0;
        std::int64_t moved = 0;  // + pushed, - popped
        dog.op_begin(t);
        if (rng.chance_pct(50)) {
          if (n > 0) {
            moved = static_cast<std::int64_t>(q.try_push_n(buf, n, h));
          } else if (q.try_push(t, h)) {
            moved = 1;
          }
        } else if (n > 0) {
          moved = -static_cast<std::int64_t>(q.try_pop_n(buf, n, h));
        } else if (q.try_pop(h).has_value()) {
          moved = -1;
        }
        dog.op_end(t);
        held.fetch_add(moved, std::memory_order_relaxed);
      }
      sync.arrive_and_drop();
    });
  }
  for (auto& w : workers) w.join();
  dog.stop();
  drain();

  const auto rep = dog.report();
  WCQ_CHECK(rep.violations == 0,
            "%s: %llu watchdog violations (max stall %.3f s)", tag,
            (unsigned long long)rep.violations,
            static_cast<double>(rep.max_stall_ns) / 1e9);
  // Wait-freedom is per-thread: every worker must have completed ops,
  // injection or not.
  for (unsigned t = 0; t < threads; ++t) {
    WCQ_CHECK(dog.ops(t) > 0, "%s: thread %u starved (0 ops)", tag, t);
  }
  std::printf(
      "  ok soak %-10s %u threads, %.1fs: %llu ops, %llu checks, max "
      "in-flight %.3f ms\n",
      tag, threads, seconds, (unsigned long long)rep.total_ops,
      (unsigned long long)checks,
      static_cast<double>(rep.max_stall_ns) / 1e6);
}

}  // namespace

int main() {
  const std::uint64_t total_s =
      harness::env_count("WCQ_SOAK_SECONDS", 2, test::kMaxSoakSeconds);
  const auto threads = static_cast<unsigned>(
      harness::env_count("WCQ_SOAK_THREADS", 4, test::kMaxSoakThreads));
  const std::uint64_t stall_ms =
      harness::env_count("WCQ_SOAK_STALL_MS", 10000, test::kMaxSoakStallMs);
  const double per_phase = static_cast<double>(total_s) / 4.0;

  // Phase 1: defaults — fast path dominant, ring small enough that
  // full/empty edges and the threshold logic stay hot.
  soak_phase<harness::WcqAdapter>(
      "default", options{}.order(10).max_threads(threads + 2), threads,
      per_phase, stall_ms);

  // Phase 2: every op out of patience on a tiny ring with eager
  // helping — the cooperative CAS2 note protocol carries the entire
  // soak, under the same injection.
  soak_phase<harness::WcqAdapter>(
      "patience=1",
      options{}.order(6).max_threads(threads + 2).patience(1, 1).help_delay(
          1),
      threads, per_phase, stall_ms);

  // Phases 3 and 4: wCQ's native bursts (wcq::queue hands them every
  // chunk) on a 2-value ring, both ways.
  const options bursts = options{}.order(1).max_threads(threads + 2);
  soak_phase<harness::WcqAdapter>("batch", bursts, threads, per_phase,
                                  stall_ms, /*batch=*/true);
  soak_phase<harness::WcqAdapter>(
      "batch p=1", options{bursts}.patience(1, 1).help_delay(1), threads,
      per_phase, stall_ms, /*batch=*/true);

  return 0;
}
