// Unit checks for the measurement harness itself: the result table's
// three printers, RNG distribution sanity, the counting allocator
// (serially and from concurrent threads), repeat_measure actually
// running setup/body the advertised number of times, and the
// WCQ_BENCH_* value parser.
#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/reporting.hpp"
#include "queue_test_common.hpp"

namespace {

using namespace wcq;

// A sampled row carries percentiles; an unsampled one (untimed, or a
// sample period longer than its ops) shows them as absent, never 0.
void test_table() {
  harness::LatencyHistogram sampled;
  for (std::uint64_t v = 1; v <= 100; ++v) sampled.record(v);
  harness::Table t("demo", "threads");
  t.set("A", 1, "mops", 1.5);
  t.set_percentiles("A", 1, sampled);
  t.set("B", 2, "mops", 3.25);
  t.set_percentiles("B", 2, harness::LatencyHistogram{});

  std::ostringstream table;
  t.print(table);
  const std::string s = table.str();
  WCQ_CHECK(s.find("== demo ==") != std::string::npos, "title missing: %s",
            s.c_str());
  WCQ_CHECK(s.find("p50_ns") != std::string::npos, "column missing: %s",
            s.c_str());
  const std::string row_b = s.substr(s.find("\nB "));
  WCQ_CHECK(row_b.find("3.250") != std::string::npos &&
                row_b.find(" -") != std::string::npos &&
                row_b.find(" 0") == std::string::npos,
            "unsampled row must show '-': %s", row_b.c_str());

  std::ostringstream csv;
  t.print_csv(csv);
  const std::string c = csv.str();
  WCQ_CHECK(c.find("series,threads,mops,p50_ns,p99_ns,p999_ns,max_ns\n") !=
                std::string::npos,
            "csv header missing: %s", c.c_str());
  WCQ_CHECK(c.find("A,1,1.500,50,99,100,100\n") != std::string::npos,
            "csv sampled row: %s", c.c_str());
  WCQ_CHECK(c.find("B,2,3.250,,,,\n") != std::string::npos,
            "csv unsampled row: %s", c.c_str());

  std::ostringstream json;
  t.print_json(json);
  WCQ_CHECK(json.str() ==
                "{\"title\": \"demo\", \"x_label\": \"threads\", "
                "\"points\": [{\"series\": \"A\", \"x\": 1, \"mops\": "
                "1.500, \"p50_ns\": 50, \"p99_ns\": 99, \"p999_ns\": 100, "
                "\"max_ns\": 100}, {\"series\": \"B\", \"x\": 2, "
                "\"mops\": 3.250}]}\n",
            "json: %s", json.str().c_str());
  std::printf("  ok table\n");
}

void test_want_csv() {
  const char* no_args[] = {"prog"};
  const char* with_csv[] = {"prog", "--csv"};
  WCQ_CHECK(!harness::want_csv(1, const_cast<char**>(no_args)), "no-arg");
  WCQ_CHECK(harness::want_csv(2, const_cast<char**>(with_csv)), "--csv");
  std::printf("  ok want_csv\n");
}

void test_rng() {
  Xoshiro256 rng(42);
  std::uint64_t heads = 0;
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.chance_pct(50)) ++heads;
    const std::uint64_t b = rng.next_below(17);
    WCQ_CHECK(b < 17, "next_below out of range: %llu",
              (unsigned long long)b);
  }
  // 50% coin over 100k flips: allow +-2% (way beyond 6 sigma).
  WCQ_CHECK(heads > n / 2 - n / 50 && heads < n / 2 + n / 50,
            "biased coin: %llu/%llu", (unsigned long long)heads,
            (unsigned long long)n);
  // Distinct seeds must diverge.
  Xoshiro256 a(1), b2(2);
  WCQ_CHECK(a.next() != b2.next(), "seeds 1 and 2 collide");
  std::printf("  ok rng\n");
}

void test_mem_counter() {
  mem::reset();
  void* p = mem::alloc(1000);
  WCQ_CHECK(mem::stats().live_bytes == 1000, "live after alloc");
  void* q = mem::alloc(500);
  WCQ_CHECK(mem::stats().peak_bytes == 1500, "peak after two allocs");
  mem::free(p, 1000);
  WCQ_CHECK(mem::stats().live_bytes == 500, "live after free");
  WCQ_CHECK(mem::stats().peak_bytes == 1500, "peak is sticky");
  mem::free(q, 500);
  mem::reset();
  WCQ_CHECK(mem::stats().peak_bytes == 0, "reset clears peak");
  std::printf("  ok mem_counter\n");
}

// Threads allocating at once: the per-thread alloc/byte tallies must
// sum exactly after the join, live bytes must return to their
// baseline, and the one global peak must cover the most any single
// thread held live.
void test_mem_counter_concurrent() {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPairs = 100000;
  constexpr unsigned kHeld = 8;  // blocks a thread holds at once
  const mem::Stats before = mem::stats();
  std::vector<std::uint64_t> bytes(kThreads, 0);
  std::vector<std::uint64_t> own_peak(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      void* ptr[kHeld] = {};
      std::size_t size[kHeld] = {};
      std::uint64_t live = 0;
      for (unsigned i = 0; i < kPairs; ++i) {
        const unsigned k = i % kHeld;
        mem::free(ptr[k], size[k]);  // nullptr (a no-op) on the first lap
        live -= size[k];
        size[k] = 1 + rng.next_below(4096);
        ptr[k] = mem::alloc(size[k]);
        live += size[k];
        bytes[t] += size[k];
        own_peak[t] = std::max(own_peak[t], live);
      }
      for (unsigned k = 0; k < kHeld; ++k) mem::free(ptr[k], size[k]);
    });
  }
  for (auto& th : threads) th.join();

  const mem::Stats after = mem::stats();
  std::uint64_t all_bytes = 0;
  std::uint64_t max_own = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    all_bytes += bytes[t];
    max_own = std::max(max_own, own_peak[t]);
  }
  WCQ_CHECK(after.total_allocs - before.total_allocs ==
                std::uint64_t{kThreads} * kPairs,
            "total_allocs grew by %llu",
            (unsigned long long)(after.total_allocs - before.total_allocs));
  WCQ_CHECK(after.total_bytes - before.total_bytes == all_bytes,
            "total_bytes grew by %llu, want %llu",
            (unsigned long long)(after.total_bytes - before.total_bytes),
            (unsigned long long)all_bytes);
  WCQ_CHECK(after.live_bytes == before.live_bytes, "live %llu, baseline %llu",
            (unsigned long long)after.live_bytes,
            (unsigned long long)before.live_bytes);
  WCQ_CHECK(after.peak_bytes >= before.live_bytes + max_own,
            "peak %llu below one thread's high water %llu",
            (unsigned long long)after.peak_bytes,
            (unsigned long long)(before.live_bytes + max_own));
  std::printf("  ok mem_counter_concurrent\n");
}

void test_repeat_measure() {
  std::atomic<unsigned> setups{0};
  std::atomic<unsigned> bodies{0};
  const auto res = harness::repeat_measure(
      3, 2, 1000, [&] { setups.fetch_add(1); },
      [&](unsigned worker, harness::LatencyHistogram&) {
        WCQ_CHECK(worker < 2, "worker id out of range");
        bodies.fetch_add(1);
      });
  WCQ_CHECK(setups.load() == 3, "setup ran %u times", setups.load());
  WCQ_CHECK(bodies.load() == 6, "body ran %u times", bodies.load());
  WCQ_CHECK(res.mean_mops > 0.0, "throughput not positive");
  std::printf("  ok repeat_measure\n");
}

// WCQ_BENCH_* values: a complete list of in-range positive integers is
// accepted; anything else is refused (the knob reader then exits 2).
void test_sweep_parse() {
  using V = std::vector<std::uint64_t>;
  const struct {
    const char* text;
    std::uint64_t max;
    std::optional<V> want;
  } cases[] = {
      {"1,2,8", 1u << 16, V{1, 2, 8}},
      {"20000", std::uint64_t{1} << 62, V{20000}},
      {"2147483648", 1u << 31, V{1u << 31}},
      {"3000000000", 1u << 31, std::nullopt},  // SAMPLE past 2^31
      {"18446744073709551616", ~std::uint64_t{0}, std::nullopt},  // 2^64
      {"1e6", std::uint64_t{1} << 62, std::nullopt},
      {"abc", std::uint64_t{1} << 62, std::nullopt},
      {"1,x,4", 1u << 16, std::nullopt},
      {"1,2, 8", 1u << 16, std::nullopt},
      {"0", 1u << 16, std::nullopt},
      {"1,,2", 1u << 16, std::nullopt},
      {"1,2,", 1u << 16, std::nullopt},
      {"-1", 1u << 16, std::nullopt},
      {"+1", 1u << 16, std::nullopt},
  };
  for (const auto& c : cases) {
    const auto got = harness::parse_counts(c.text, c.max);
    WCQ_CHECK(got == c.want, "parse_counts(\"%s\") %s", c.text,
              got ? "accepted" : "refused");
  }
#if defined(__linux__)
  setenv("WCQ_BENCH_THREADS", "1,2,8", 1);
  const auto sweep = harness::sweep_thread_counts();
  WCQ_CHECK(sweep == (std::vector<unsigned>{1, 2, 8}), "parsed %zu entries",
            sweep.size());
  unsetenv("WCQ_BENCH_THREADS");
  WCQ_CHECK(harness::sweep_thread_counts() ==
                (std::vector<unsigned>{1, 2, 4, 8}),
            "unset WCQ_BENCH_THREADS must give the default sweep");
#endif
  std::printf("  ok sweep_parse\n");
}

}  // namespace

int main() {
  test_table();
  test_want_csv();
  test_rng();
  test_mem_counter();
  test_mem_counter_concurrent();
  test_repeat_measure();
  test_sweep_parse();
  return 0;
}
