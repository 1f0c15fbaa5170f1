// Measurement driver: spawn N pinned workers, release them through a
// spin barrier, time the run wall-clock, repeat, and report mean
// Mops/s with the coefficient of variation across runs — plus, when
// the body records into its per-thread histogram, merged per-op
// latency percentiles. Also the one parser of the WCQ_BENCH_* knobs.
//
// Two load models:
//  - repeat_measure: closed loop. Each worker issues its next op the
//    moment the previous one returns, so the
//    system always runs at saturation and the figure is throughput.
//    Closed-loop latency suffers coordinated omission: a slow op also
//    delays the *issue* of every op behind it, hiding queueing delay.
//  - open_loop_measure: arrival-rate controlled. Ops are due at
//    schedule times drawn independently of the system's speed (fixed
//    interval or Poisson), and a late start is charged to the op:
//    response time = completion - scheduled arrival = queueing +
//    service. This is the number a latency SLO actually bounds.
#pragma once

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/latency.hpp"
#include "wcq/detail.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wcq::harness {

struct MeasureResult {
  double mean_mops = 0.0;
  double cv = 0.0;  // stddev / mean across runs
  // Per-op service latency (ns), merged across threads and runs;
  // empty (count()==0) unless the body recorded samples.
  LatencyHistogram latency;
};

// A WCQ_BENCH_* value: comma-separated decimal integers, each in
// [1, max]. nullopt when any entry is empty, holds anything but digits,
// is 0, or exceeds max.
inline std::optional<std::vector<std::uint64_t>> parse_counts(
    std::string_view text, std::uint64_t max) {
  std::vector<std::uint64_t> out;
  for (;;) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(item.data(), item.data() + item.size(), v);
    if (item.empty() || ec != std::errc{} || end != item.data() + item.size() ||
        v == 0 || v > max) {
      return std::nullopt;
    }
    out.push_back(v);
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

// The text of knob `var`, empty when unset.
inline std::string_view env_text(const char* var) {
  const char* v = std::getenv(var);
  return v != nullptr ? v : "";
}

[[noreturn]] inline void refuse_env(const char* var, std::string_view value,
                                    const char* expected) {
  std::fprintf(stderr, "%s=%.*s: expected %s\n", var,
               static_cast<int>(value.size()), value.data(), expected);
  std::exit(2);
}

// The one reader of numeric WCQ_BENCH_* knobs: `fallback` when `var` is
// unset or empty, else its parse_counts list (one value unless `list`).
// A malformed value exits 2 naming the variable, so a typo never runs a
// silently different sweep.
inline std::vector<std::uint64_t> env_counts(
    const char* var, std::vector<std::uint64_t> fallback, std::uint64_t max,
    bool list = true) {
  const std::string_view text = env_text(var);
  if (text.empty()) return fallback;
  auto parsed = parse_counts(text, max);
  if (!parsed || (!list && parsed->size() != 1)) {
    const std::string expected =
        (list ? "comma-separated integers in [1, " : "an integer in [1, ") +
        std::to_string(max) + "]";
    refuse_env(var, text, expected.c_str());
  }
  return *parsed;
}

inline std::uint64_t env_count(const char* var, std::uint64_t fallback,
                               std::uint64_t max) {
  return env_counts(var, {fallback}, max, /*list=*/false)[0];
}

// Thread sweep from WCQ_BENCH_THREADS ("1,2,4,8"), default 1,2,4,8
// (paper: 1,2,4,8,18,36,72,144). The cap keeps max_threads(threads + 2)
// far inside unsigned.
inline std::vector<unsigned> sweep_thread_counts() {
  const auto v = env_counts("WCQ_BENCH_THREADS", {1, 2, 4, 8}, 1u << 16);
  return {v.begin(), v.end()};
}

inline void pin_to_cpu(unsigned worker) {
#if defined(__linux__)
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(worker % ncpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker;
#endif
}

// Run `body(worker, hist)` on `threads` workers, `runs` times;
// `setup()` is invoked before each run (fresh queue per run).
// `total_ops` is the op count a full run performs, used for the Mops/s
// figure. Each worker gets a private LatencyHistogram (no sharing on
// the record path); all of them are merged into the result.
template <typename Setup, typename Body>
MeasureResult repeat_measure(unsigned runs, unsigned threads,
                             std::uint64_t total_ops, Setup&& setup,
                             Body&& body) {
  if (runs == 0) runs = 1;
  if (threads == 0) threads = 1;
  MeasureResult res;
  std::vector<double> mops;
  mops.reserve(runs);
  std::vector<LatencyHistogram> hists(threads);
  for (unsigned r = 0; r < runs; ++r) {
    setup();
    for (auto& h : hists) h.reset();
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        pin_to_cpu(w);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
          // Yield, not pause: keeps oversubscribed small machines live.
          std::this_thread::yield();
        }
        body(w, hists[w]);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    mops.push_back(secs > 0.0
                       ? static_cast<double>(total_ops) / 1e6 / secs
                       : 0.0);
    for (const auto& h : hists) res.latency.merge(h);
  }
  double sum = 0.0;
  for (double m : mops) sum += m;
  res.mean_mops = sum / static_cast<double>(mops.size());
  if (mops.size() > 1 && res.mean_mops > 0.0) {
    double var = 0.0;
    for (double m : mops) var += (m - res.mean_mops) * (m - res.mean_mops);
    var /= static_cast<double>(mops.size() - 1);
    res.cv = std::sqrt(var) / res.mean_mops;
  }
  return res;
}

// ---- open-loop (arrival-rate controlled) load ----------------------

struct OpenLoopResult {
  double offered_mops = 0.0;   // the configured arrival rate
  double achieved_mops = 0.0;  // completions / wall-clock, mean of runs
  // Response time (ns) = completion - scheduled arrival, i.e. queueing
  // (pacer backlog) + service. Merged across threads and runs.
  LatencyHistogram response;
  // Pacing accuracy: mean ns between an op's scheduled arrival and the
  // moment the worker actually began it. Small vs the inter-arrival
  // gap = the pacing wheel kept up; large = the offered rate exceeds
  // capacity and responses are dominated by queueing delay.
  double mean_start_delay_ns = 0.0;
};

// Drive each of `threads` workers with its own arrival stream of
// `arrivals_per_thread` ops at `rate_per_thread_hz`; `poisson` selects
// exponential inter-arrival gaps (memoryless bursts) over a fixed
// interval. `op(worker)` performs one operation. Arrivals are never
// dropped or deferred by the pacer: when the system falls behind, ops
// start late and the lateness is charged to their response time.
template <typename Setup, typename Op>
OpenLoopResult open_loop_measure(unsigned runs, unsigned threads,
                                 std::uint64_t arrivals_per_thread,
                                 double rate_per_thread_hz, bool poisson,
                                 Setup&& setup, Op&& op) {
  if (runs == 0) runs = 1;
  if (threads == 0) threads = 1;
  if (rate_per_thread_hz <= 0.0) rate_per_thread_hz = 1.0;
  OpenLoopResult res;
  res.offered_mops = rate_per_thread_hz * threads / 1e6;
  const double gap_ns = 1e9 / rate_per_thread_hz;
  std::vector<LatencyHistogram> hists(threads);
  std::vector<std::uint64_t> delay_sums(threads, 0);
  double secs_sum = 0.0;
  std::uint64_t delay_total = 0;
  for (unsigned r = 0; r < runs; ++r) {
    setup();
    for (auto& h : hists) h.reset();
    for (auto& d : delay_sums) d = 0;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w, r] {
        pin_to_cpu(w);
        Xoshiro256 rng(0xa11ce5u + w * 7919u + r * 104729u);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        // The pacing wheel: successive deadlines accumulate in double
        // precision so rounding never drifts the offered rate.
        double sched = static_cast<double>(now_ns());
        for (std::uint64_t i = 0; i < arrivals_per_thread; ++i) {
          double gap = gap_ns;
          if (poisson) {
            // u in (0, 1]: exponential inter-arrival via inversion.
            const double u = (static_cast<double>(rng.next() >> 11) + 1.0) /
                             9007199254740993.0;
            gap = gap_ns * -std::log(u);
          }
          sched += gap;
          const auto deadline = static_cast<std::uint64_t>(sched);
          std::uint64_t now = now_ns();
          while (now < deadline) {
            // Far out: yield (oversubscribed boxes must let peers
            // run); close in: spin for sub-µs arming accuracy.
            if (deadline - now > 100'000) {
              std::this_thread::yield();
            } else {
              detail::cpu_pause();
            }
            now = now_ns();
          }
          delay_sums[w] += now - deadline;
          op(w);
          hists[w].record(now_ns() - deadline);
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    secs_sum += std::chrono::duration<double>(t1 - t0).count();
    for (const auto& h : hists) res.response.merge(h);
    for (const auto d : delay_sums) delay_total += d;
  }
  const double ops_per_run = static_cast<double>(arrivals_per_thread) * threads;
  if (secs_sum > 0.0) {
    res.achieved_mops = ops_per_run / 1e6 / (secs_sum / runs);
  }
  if (res.response.count() > 0) {
    res.mean_start_delay_ns = static_cast<double>(delay_total) /
                              static_cast<double>(res.response.count());
  }
  return res;
}

}  // namespace wcq::harness
