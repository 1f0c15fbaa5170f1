// Unit checks for the latency-first harness pieces: histogram bucket
// mapping, record/merge/percentile correctness, the op sampler, the
// latency-recording driver, open-loop pacing invariants, and the
// starvation watchdog's stall detection.
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/watchdog.hpp"
#include "queue_test_common.hpp"

namespace {

using namespace wcq;
using harness::LatencyHistogram;

// Every value must land in a bucket whose bounds contain it, buckets
// must tile the axis with no gaps, and above the exact tier the bucket
// width must stay within the 1/32 relative-precision contract.
void test_bucket_mapping() {
  for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t low = LatencyHistogram::bucket_low(i);
    const std::uint64_t high = LatencyHistogram::bucket_high(i);
    WCQ_CHECK(LatencyHistogram::bucket_of(low) == i,
              "low of bucket %u maps to %u", i,
              LatencyHistogram::bucket_of(low));
    WCQ_CHECK(LatencyHistogram::bucket_of(high) == i,
              "high of bucket %u maps to %u", i,
              LatencyHistogram::bucket_of(high));
    if (i + 1 < LatencyHistogram::kBucketCount) {
      WCQ_CHECK(LatencyHistogram::bucket_low(i + 1) == high + 1,
                "gap after bucket %u", i);
    }
    if (low >= 2 * LatencyHistogram::kSub) {
      const std::uint64_t width = high - low + 1;
      WCQ_CHECK(width * LatencyHistogram::kSub <= low,
                "bucket %u width %llu too wide for low %llu", i,
                (unsigned long long)width, (unsigned long long)low);
    }
  }
  // Random values round-trip into containing buckets across the range.
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next() >> (rng.next_below(60));
    const unsigned b = LatencyHistogram::bucket_of(v);
    WCQ_CHECK(LatencyHistogram::bucket_low(b) <= v &&
                  v <= LatencyHistogram::bucket_high(b),
              "value %llu outside bucket %u", (unsigned long long)v, b);
  }
  std::printf("  ok bucket_mapping\n");
}

void test_percentiles() {
  LatencyHistogram h;
  WCQ_CHECK(h.value_at_percentile(50.0) == 0, "empty histogram p50");
  // 1..1000 once each: percentiles must land within the 3.2% bucket
  // error of the exact order statistic; max/min/count/mean are exact.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  WCQ_CHECK(h.count() == 1000, "count %llu", (unsigned long long)h.count());
  WCQ_CHECK(h.max() == 1000, "max %llu", (unsigned long long)h.max());
  WCQ_CHECK(h.min() == 1, "min %llu", (unsigned long long)h.min());
  WCQ_CHECK(h.mean() > 500.0 && h.mean() < 501.0, "mean %f", h.mean());
  const auto near = [](std::uint64_t got, std::uint64_t want) {
    const double rel =
        static_cast<double>(got > want ? got - want : want - got) /
        static_cast<double>(want);
    return rel <= 0.04;  // bucket width 1/32 plus rounding
  };
  WCQ_CHECK(near(h.p50(), 500), "p50 %llu", (unsigned long long)h.p50());
  WCQ_CHECK(near(h.p99(), 990), "p99 %llu", (unsigned long long)h.p99());
  WCQ_CHECK(near(h.p999(), 999), "p99.9 %llu",
            (unsigned long long)h.p999());
  WCQ_CHECK(h.value_at_percentile(100.0) == 1000, "p100 must equal max");
  // Tier-0 values are exact: a distribution entirely below 64 ns
  // yields exact percentiles.
  LatencyHistogram small;
  for (std::uint64_t v = 0; v < 64; ++v) {
    for (int k = 0; k < 10; ++k) small.record(v);
  }
  WCQ_CHECK(small.p50() == 31 || small.p50() == 32, "tier0 p50 %llu",
            (unsigned long long)small.p50());
  std::printf("  ok percentiles\n");
}

void test_merge() {
  LatencyHistogram a, b, whole;
  Xoshiro256 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 20);
    whole.record(v);
    (i % 2 ? a : b).record(v);
  }
  a.merge(b);
  WCQ_CHECK(a.count() == whole.count(), "merged count");
  WCQ_CHECK(a.max() == whole.max(), "merged max");
  WCQ_CHECK(a.min() == whole.min(), "merged min");
  WCQ_CHECK(a.p50() == whole.p50(), "merged p50 %llu vs %llu",
            (unsigned long long)a.p50(), (unsigned long long)whole.p50());
  WCQ_CHECK(a.p999() == whole.p999(), "merged p99.9");
  std::printf("  ok merge\n");
}

void test_sampler() {
  LatencyHistogram h;
  harness::OpSampler s(h, 8);
  unsigned armed = 0;
  for (unsigned i = 0; i < 8 * 100; ++i) {
    if (s.arm()) ++armed;
  }
  WCQ_CHECK(armed == 100, "period-8 sampler armed %u of 800", armed);
  // Period rounds up to a power of two.
  harness::OpSampler s2(h, 5);
  armed = 0;
  for (unsigned i = 0; i < 8 * 10; ++i) {
    if (s2.arm()) ++armed;
  }
  WCQ_CHECK(armed == 10, "period-5->8 sampler armed %u of 80", armed);
  std::printf("  ok sampler\n");
}

void test_driver_latency() {
  std::atomic<unsigned> setups{0};
  const auto res = harness::repeat_measure_latency(
      2, 2, 1000, [&] { setups.fetch_add(1); },
      [&](unsigned worker, LatencyHistogram& hist) {
        WCQ_CHECK(worker < 2, "worker id out of range");
        for (int i = 0; i < 250; ++i) hist.record(100 + worker);
      });
  WCQ_CHECK(setups.load() == 2, "setup ran %u times", setups.load());
  // 2 runs x 2 workers x 250 samples merged into one histogram.
  WCQ_CHECK(res.latency.count() == 1000, "merged %llu samples",
            (unsigned long long)res.latency.count());
  WCQ_CHECK(res.latency.max() == 101, "merged max %llu",
            (unsigned long long)res.latency.max());
  WCQ_CHECK(res.mean_mops > 0.0, "throughput not positive");
  std::printf("  ok driver_latency\n");
}

// Open-loop pacing, asserting only what holds under any scheduling:
// every arrival is served, the run never outpaces its schedule
// (achieved <= offered), and the start delay is a finite measurement.
// How close the pacer keeps to the schedule depends on the machine's
// load; docs/BENCHMARKING.md gives that check as a manual one.
void test_openloop_pacing() {
  const std::uint64_t arrivals = 200;
  const double rate = 20'000.0;  // 50 µs fixed gap -> 10 ms run
  std::atomic<std::uint64_t> ops{0};
  const auto res = harness::open_loop_measure(
      1, 1, arrivals, rate, /*poisson=*/false, [] {},
      [&](unsigned) { ops.fetch_add(1, std::memory_order_relaxed); });
  WCQ_CHECK(ops.load() == arrivals, "ran %llu of %llu arrivals",
            (unsigned long long)ops.load(), (unsigned long long)arrivals);
  WCQ_CHECK(res.response.count() == arrivals, "recorded %llu responses",
            (unsigned long long)res.response.count());
  WCQ_CHECK(res.offered_mops > 0.019 && res.offered_mops < 0.021,
            "offered %f Mops", res.offered_mops);
  // Never faster than the schedule allows (+5% measurement slack).
  WCQ_CHECK(res.achieved_mops <= res.offered_mops * 1.05,
            "achieved %f > offered %f", res.achieved_mops,
            res.offered_mops);
  WCQ_CHECK(std::isfinite(res.mean_start_delay_ns) &&
                res.mean_start_delay_ns >= 0.0,
            "mean start delay %f ns", res.mean_start_delay_ns);
  // Poisson arrivals: same op count, and no faster than the schedule:
  // 500 exponential gaps of mean 20 us sum to under 4 ms with
  // negligible probability.
  const auto pres = harness::open_loop_measure(
      1, 1, 500, 50'000.0, /*poisson=*/true, [] {}, [](unsigned) {});
  WCQ_CHECK(pres.response.count() == 500, "poisson responses");
  const double dur_s = 500.0 / 1e6 / pres.achieved_mops;
  WCQ_CHECK(dur_s > 0.004, "poisson 500 arrivals @50k/s took only %f s",
            dur_s);
  std::printf("  ok openloop_pacing\n");
}

void test_watchdog() {
  using namespace std::chrono_literals;
  // Healthy workers: ops complete fast, no violations at a 1 s limit.
  {
    harness::StarvationWatchdog dog(2, 1s);
    dog.start();
    for (unsigned t = 0; t < 2; ++t) {
      for (int i = 0; i < 1000; ++i) {
        dog.op_begin(t);
        dog.op_end(t);
      }
    }
    dog.stop();
    const auto rep = dog.report();
    WCQ_CHECK(rep.violations == 0, "healthy run had %llu violations",
              (unsigned long long)rep.violations);
    WCQ_CHECK(rep.total_ops == 2000, "counted %llu ops",
              (unsigned long long)rep.total_ops);
  }
  // A stalled op must be seen: begin, never end, limit 20 ms.
  {
    harness::StarvationWatchdog dog(1, 20ms, /*fatal=*/false);
    dog.op_begin(0);
    dog.start();
    std::this_thread::sleep_for(150ms);
    dog.stop();
    const auto rep = dog.report();
    WCQ_CHECK(rep.violations > 0, "stall not detected");
    WCQ_CHECK(rep.max_stall_ns > 20'000'000ull, "max stall %llu ns",
              (unsigned long long)rep.max_stall_ns);
    WCQ_CHECK(rep.worst_thread == 0, "worst thread %u", rep.worst_thread);
  }
  std::printf("  ok watchdog\n");
}

}  // namespace

int main() {
  test_bucket_mapping();
  test_percentiles();
  test_merge();
  test_sampler();
  test_driver_latency();
  test_openloop_pacing();
  test_watchdog();
  return 0;
}
