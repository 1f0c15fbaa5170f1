// Shared benchmark scaffolding: one closed-loop runner (measure), the
// workloads of Figures 10-12 written once each, the thread sweep over a
// lineup, the one open-loop series, and the one table printer. Every
// figure, ablation and sweep in bench/ goes through these.
//
// Whether a figure samples per-op latency is decided by the sampler
// type it passes, never by a flag: harness::OpSampler for the figures
// that report percentiles (11b, 11c, the sharded closed loop),
// harness::Untimed for the throughput-only ones, whose loops then
// compile as if no sampler existed (see latency.hpp).
//
// Defaults are sized for small machines; the paper's exact methodology
// (10,000,000 ops x 10 runs, threads up to 144) is reproduced by
// setting WCQ_BENCH_OPS=10000000 WCQ_BENCH_RUNS=10 and
// WCQ_BENCH_THREADS=1,2,4,8,18,36,72,144 in the environment.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/queue_adapters.hpp"
#include "harness/reporting.hpp"
#include "wcq/concepts.hpp"
#include "wcq/options.hpp"

namespace wcq::bench {

// ---- knobs (thread sweep: harness::sweep_thread_counts) ----

inline std::uint64_t default_ops() {
  return harness::env_count("WCQ_BENCH_OPS", 1'000'000,  // paper: 10'000'000
                            std::uint64_t{1} << 62);
}

inline unsigned default_runs() {
  return static_cast<unsigned>(
      harness::env_count("WCQ_BENCH_RUNS", 3, 1u << 16));  // paper: 10
}

// Latency sampling period: 1 of every N ops is timed (N rounded up to a
// power of two, so at most 2^31). 64 keeps the two clock reads'
// perturbation of a ~40 ns queue op in the low single-digit percent.
inline unsigned default_sample_period() {
  return static_cast<unsigned>(
      harness::env_count("WCQ_BENCH_SAMPLE", 64, 1u << 31));
}

// Open-loop offered rate, total ops/sec across all workers.
inline double default_rate_hz() {
  return static_cast<double>(harness::env_count(
      "WCQ_BENCH_RATE", 1'000'000, std::uint64_t{1} << 32));
}

// Open-loop arrival process: Poisson (default) or fixed-interval.
inline bool default_poisson() {
  const std::string_view v = harness::env_text("WCQ_BENCH_ARRIVAL");
  if (v.empty() || v == "poisson") return true;
  if (v != "fixed") {
    harness::refuse_env("WCQ_BENCH_ARRIVAL", v, "poisson or fixed");
  }
  return false;
}

// ---- the workloads of Figures 10-12 ----
//
// Each runs `ops` operations on one worker's handle and passes every op
// through maybe_timed, so one source serves the sampled and the
// untimed figures.

// (a) Dequeue in a tight loop on an always-empty queue.
struct EmptyDequeue {
  template <concepts::Queue Q, typename Sampler>
  void operator()(Q& q, typename Q::handle& h, Xoshiro256&,
                  std::uint64_t ops, Sampler& s) const {
    for (std::uint64_t i = 0; i < ops; ++i) {
      harness::maybe_timed(s, [&] { (void)q.try_pop(h); });
    }
  }
};

// (b) Pairwise: Enqueue immediately followed by Dequeue. Push and pop
// are timed as separate operations, so the histogram is over single-op
// service time, not the pair.
struct Pairwise {
  template <concepts::Queue Q, typename Sampler>
  void operator()(Q& q, typename Q::handle& h, Xoshiro256&,
                  std::uint64_t ops, Sampler& s) const {
    for (std::uint64_t i = 0; i < ops / 2; ++i) {
      harness::maybe_timed(s, [&] {
        while (!q.try_push(i & 0xffff, h)) {
        }
      });
      harness::maybe_timed(s, [&] { (void)q.try_pop(h); });
    }
  }
};

// (c) 50%/50% random mix. Figure 10's memory test adds a random spin of
// up to `max_delay` pauses after every op, which the paper found
// amplifies memory-efficiency artifacts.
struct Mixed {
  unsigned max_delay = 0;

  template <concepts::Queue Q, typename Sampler>
  void operator()(Q& q, typename Q::handle& h, Xoshiro256& rng,
                  std::uint64_t ops, Sampler& s) const {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (rng.chance_pct(50)) {
        harness::maybe_timed(s, [&] {
          while (!q.try_push(i & 0xffff, h)) {
            if (!q.try_pop(h)) break;  // bounded queue full: make room
          }
        });
      } else {
        harness::maybe_timed(s, [&] { (void)q.try_pop(h); });
      }
      spin_delay(rng.next_below(max_delay));
    }
  }
};

// ---- the one closed-loop runner ----

template <concepts::Queue Q>
struct Point {
  harness::MeasureResult result;
  std::unique_ptr<Q> queue;  // the last run's instance, for stats()
  std::uint64_t ops = 0;     // ops one run performed
};

// One worker's loop, as a function of its own aligned to 64 bytes. A
// ~1 ns loop (SCQ's empty dequeue) runs up to 2x slower when its hot
// blocks straddle 32-byte fetch windows, so its layout must not move
// with unrelated harness code (see also CMakeLists.txt).
template <typename Workload, typename Q, typename Sampler>
[[gnu::noinline, gnu::aligned(64)]] void run_loop(const Workload& workload,
                                                  Q& q, typename Q::handle& h,
                                                  Xoshiro256& rng,
                                                  std::uint64_t ops,
                                                  Sampler& s) {
  workload(q, h, rng, ops, s);
}

// `threads` workers each run `workload` for total_ops / threads ops,
// default_runs() times, every run on a fresh Q built from `opts`. The
// counting allocator and the peak-RSS mark are reset before each
// instance is built, so mem::stats() and mem::peak_rss_bytes() read
// after the call describe the returned queue's run alone.
template <concepts::Queue Q, typename Sampler, typename Workload>
Point<Q> measure(unsigned threads, options opts, const Workload& workload,
                 std::uint64_t total_ops = default_ops()) {
  opts.max_threads(threads + 2);
  const std::uint64_t per_thread = total_ops / threads;
  const unsigned period = default_sample_period();
  Point<Q> p;
  p.ops = per_thread * threads;
  auto setup = [&] {
    p.queue.reset();  // destroy the previous instance first
    mem::reset();
    mem::reset_peak_rss();
    p.queue = std::make_unique<Q>(opts);
  };
  auto body = [&](unsigned worker, harness::LatencyHistogram& hist) {
    auto handle = p.queue->get_handle();
    Xoshiro256 rng(0x1234u + worker * 7919u);
    Sampler sampler(hist, period);
    run_loop(workload, *p.queue, handle, rng, per_thread, sampler);
  };
  p.result =
      harness::repeat_measure(default_runs(), threads, p.ops, setup, body);
  return p;
}

// Puts one closed-loop point in the table (throughput, plus percentiles
// when it was sampled) and logs it.
inline void record(harness::Table& table, const std::string& series,
                   std::uint64_t x, const harness::MeasureResult& r) {
  table.set(series, x, "mops", r.mean_mops);
  table.set_percentiles(series, x, r.latency);
  std::cerr << "  " << series << " @" << x << ": " << r.mean_mops
            << " Mops/s (cv " << r.cv << ")\n";
}

// One series over the thread sweep.
template <concepts::Queue Q, typename Sampler, typename Workload>
void sweep(harness::Table& table, const std::string& series,
           const options& opts, const Workload& workload) {
  for (const unsigned threads : harness::sweep_thread_counts()) {
    record(table, series, threads,
           measure<Q, Sampler>(threads, opts, workload).result);
  }
}

// Every queue of a lineup over the thread sweep, one series each.
template <typename Sampler, typename Lineup, typename Workload>
void sweep_lineup(harness::Table& table, Lineup lineup,
                  const Workload& workload) {
  harness::for_each_queue(lineup, [&]<typename Q>() {
    sweep<Q, Sampler>(table, Q::kName, options{}, workload);
  });
}

// ---- the one open-loop series ----

// One series over the thread sweep at the WCQ_BENCH_RATE offered rate,
// `total_arrivals` per point. One arrival is one enqueue + one dequeue;
// its response time counts from the scheduled arrival, so pacer backlog
// is charged like a latency SLO would charge it.
template <concepts::Queue Q>
void open_loop_sweep(harness::Table& table, const std::string& series,
                     const options& base, std::uint64_t total_arrivals) {
  const double rate = default_rate_hz();
  const bool poisson = default_poisson();
  for (const unsigned threads : harness::sweep_thread_counts()) {
    options opts = base;
    opts.max_threads(threads + 2);
    std::unique_ptr<Q> q;
    std::vector<std::unique_ptr<typename Q::handle>> handles;
    auto setup = [&] {
      handles.clear();
      q = std::make_unique<Q>(opts);
      handles.resize(threads);
    };
    auto op = [&](unsigned worker) {
      // Handles are registered lazily on the worker's first arrival
      // (get_handle must run on the owning thread, not in setup).
      auto& h = handles[worker];
      if (!h) h = std::make_unique<typename Q::handle>(q->get_handle());
      while (!q->try_push(worker, *h)) {
        if (!q->try_pop(*h)) break;  // bounded queue full: make room
      }
      (void)q->try_pop(*h);
    };
    const auto r = harness::open_loop_measure(
        default_runs(), threads, total_arrivals / threads, rate / threads,
        poisson, setup, op);
    table.set(series, threads, "mops", r.achieved_mops);
    table.set_percentiles(series, threads, r.response);
    std::cerr << "  " << series << " @" << threads << ": offered "
              << r.offered_mops << " Mops/s, achieved " << r.achieved_mops
              << " (start delay " << r.mean_start_delay_ns
              << "ns, response p50 " << r.response.p50() << "ns p99 "
              << r.response.p99() << "ns)\n";
  }
}

// Prints the table, then its CSV (--csv) and JSON (--json).
inline void emit(const harness::Table& table, int argc, char** argv) {
  table.print(std::cout);
  if (harness::want_csv(argc, argv)) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
  if (harness::want_json(argc, argv)) {
    std::cout << "\n";
    table.print_json(std::cout);
  }
}

}  // namespace wcq::bench
