// Shared benchmark scaffolding: run one workload across the paper's
// queue lineup and thread sweep, print a figure-shaped table (+ CSV
// with --csv). Everything here is constrained on wcq::concepts::Queue,
// so a workload compiles against any lineup entry (or any future
// backend) without per-queue glue.
//
// Defaults are sized for small machines; the paper's exact methodology
// (10,000,000 ops x 10 runs, threads up to 144) is reproduced by
// setting WCQ_BENCH_OPS=10000000 WCQ_BENCH_RUNS=10 and
// WCQ_BENCH_THREADS=1,2,4,8,18,36,72,144 in the environment.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/spin.hpp"
#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/queue_adapters.hpp"
#include "harness/reporting.hpp"
#include "wcq/concepts.hpp"

namespace wcq::bench {

inline std::uint64_t default_ops() {
  if (const char* v = std::getenv("WCQ_BENCH_OPS"); v && *v) {
    return std::strtoull(v, nullptr, 10);
  }
  return 1'000'000;  // paper: 10'000'000
}

inline unsigned default_runs() {
  if (const char* v = std::getenv("WCQ_BENCH_RUNS"); v && *v) {
    return static_cast<unsigned>(std::strtoul(v, nullptr, 10));
  }
  return 3;  // paper: 10
}

inline std::vector<unsigned> default_threads() {
  if (std::getenv("WCQ_BENCH_THREADS")) {
    return harness::sweep_thread_counts();
  }
  return {1, 2, 4, 8};  // paper: 1,2,4,8,18,36,72,144
}

// Latency sampling period: 1 of every N ops is timed (N rounded to a
// power of two). 64 keeps the two clock reads' perturbation of a
// ~40 ns queue op in the low single-digit percent.
inline unsigned default_sample_period() {
  if (const char* v = std::getenv("WCQ_BENCH_SAMPLE"); v && *v) {
    return static_cast<unsigned>(std::strtoul(v, nullptr, 10));
  }
  return 64;
}

// Open-loop offered rate, total ops/sec across all workers.
inline double default_rate_hz() {
  if (const char* v = std::getenv("WCQ_BENCH_RATE"); v && *v) {
    return std::strtod(v, nullptr);
  }
  return 1e6;
}

// Open-loop arrival process: Poisson (default) or fixed-interval.
inline bool default_poisson() {
  if (const char* v = std::getenv("WCQ_BENCH_ARRIVAL"); v && *v) {
    return std::strcmp(v, "fixed") != 0;
  }
  return true;
}

// Per-thread benchmark body: given (queue, handle, rng, ops) perform
// `ops` queue operations.
template <concepts::Queue Q>
using Workload = std::function<void(Q&, typename Q::handle&, Xoshiro256&,
                                    std::uint64_t)>;

// Latency-recording flavor: the workload additionally gets an
// OpSampler and times the ops it elects through harness::maybe_timed.
template <concepts::Queue Q>
using TimedWorkload =
    std::function<void(Q&, typename Q::handle&, Xoshiro256&, std::uint64_t,
                       harness::OpSampler&)>;

// Measure one queue type over the thread sweep; adds one series.
template <concepts::Queue Q>
void run_series(harness::SeriesTable& table, const Workload<Q>& workload,
                const std::vector<unsigned>& threads_sweep,
                std::uint64_t total_ops, unsigned runs,
                const options& base_opts = options{}) {
  for (unsigned threads : threads_sweep) {
    options opts = base_opts;
    opts.max_threads(threads + 2);
    std::unique_ptr<Q> q;
    const std::uint64_t ops_per_thread = total_ops / threads;
    auto setup = [&] { q = std::make_unique<Q>(opts); };
    auto body = [&](unsigned worker) {
      auto handle = q->get_handle();
      Xoshiro256 rng(0x1234u + worker * 7919u);
      workload(*q, handle, rng, ops_per_thread);
    };
    const auto res = harness::repeat_measure(runs, threads,
                                             ops_per_thread * threads,
                                             setup, body);
    table.set(Q::kName, threads, res.mean_mops);
    std::cerr << "  " << Q::kName << " @" << threads << ": "
              << res.mean_mops << " Mops/s (cv " << res.cv << ")\n";
  }
}

// Latency-first variant of run_series: same sweep, but each worker
// samples per-op service latency into a private histogram and the
// table row carries throughput + percentiles.
template <concepts::Queue Q>
void run_series_latency(harness::MetricsTable& table,
                        const TimedWorkload<Q>& workload,
                        const std::vector<unsigned>& threads_sweep,
                        std::uint64_t total_ops, unsigned runs,
                        const options& base_opts = options{}) {
  const unsigned sample_period = default_sample_period();
  for (unsigned threads : threads_sweep) {
    options opts = base_opts;
    opts.max_threads(threads + 2);
    std::unique_ptr<Q> q;
    const std::uint64_t ops_per_thread = total_ops / threads;
    auto setup = [&] { q = std::make_unique<Q>(opts); };
    auto body = [&](unsigned worker, harness::LatencyHistogram& hist) {
      auto handle = q->get_handle();
      Xoshiro256 rng(0x1234u + worker * 7919u);
      harness::OpSampler sampler(hist, sample_period);
      workload(*q, handle, rng, ops_per_thread, sampler);
    };
    const auto res = harness::repeat_measure_latency(
        runs, threads, ops_per_thread * threads, setup, body);
    table.set(Q::kName, threads,
              harness::OpMetrics{res.mean_mops, res.latency.p50(),
                                 res.latency.p99(), res.latency.p999(),
                                 res.latency.max()});
    std::cerr << "  " << Q::kName << " @" << threads << ": " << res.mean_mops
              << " Mops/s (cv " << res.cv << ", p50 " << res.latency.p50()
              << "ns p99 " << res.latency.p99() << "ns p99.9 "
              << res.latency.p999() << "ns)\n";
  }
}

// The paper's full lineup, in its legend order.
template <typename MakeWorkload>
void run_all_queues(harness::SeriesTable& table, MakeWorkload make,
                    const std::vector<unsigned>& threads,
                    std::uint64_t total_ops, unsigned runs) {
  run_series<harness::FaaAdapter>(table, make.template operator()<harness::FaaAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::WcqAdapter>(table, make.template operator()<harness::WcqAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::NcqAdapter>(table, make.template operator()<harness::NcqAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::CcqAdapter>(table, make.template operator()<harness::CcqAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::ScqAdapter>(table, make.template operator()<harness::ScqAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::MsqAdapter>(table, make.template operator()<harness::MsqAdapter>(),
                                  threads, total_ops, runs);
  run_series<harness::LcrqAdapter>(table, make.template operator()<harness::LcrqAdapter>(),
                                   threads, total_ops, runs);
  run_series<harness::LscqAdapter>(table, make.template operator()<harness::LscqAdapter>(),
                                   threads, total_ops, runs);
}

// Latency-first lineup sweep (same legend order).
template <typename MakeWorkload>
void run_all_queues_latency(harness::MetricsTable& table, MakeWorkload make,
                            const std::vector<unsigned>& threads,
                            std::uint64_t total_ops, unsigned runs) {
  run_series_latency<harness::FaaAdapter>(
      table, make.template operator()<harness::FaaAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::WcqAdapter>(
      table, make.template operator()<harness::WcqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::NcqAdapter>(
      table, make.template operator()<harness::NcqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::CcqAdapter>(
      table, make.template operator()<harness::CcqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::ScqAdapter>(
      table, make.template operator()<harness::ScqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::MsqAdapter>(
      table, make.template operator()<harness::MsqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::LcrqAdapter>(
      table, make.template operator()<harness::LcrqAdapter>(), threads,
      total_ops, runs);
  run_series_latency<harness::LscqAdapter>(
      table, make.template operator()<harness::LscqAdapter>(), threads,
      total_ops, runs);
}

// ---- the three workloads of Figures 11/12 ----

// (a) Dequeue in a tight loop on an always-empty queue.
template <concepts::Queue Q>
Workload<Q> empty_dequeue_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256&, std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      (void)q.try_pop(h);
    }
  };
}

// (b) Pairwise: Enqueue immediately followed by Dequeue.
template <concepts::Queue Q>
Workload<Q> pairwise_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256&, std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops / 2; ++i) {
      while (!q.try_push(i & 0xffff, h)) {
      }
      (void)q.try_pop(h);
    }
  };
}

// (b') Pairwise with per-op latency sampling: push and pop are timed
// as separate operations, so the histogram is over single-op service
// time, not the pair.
template <concepts::Queue Q>
TimedWorkload<Q> pairwise_timed_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256&, std::uint64_t ops,
            harness::OpSampler& sampler) {
    for (std::uint64_t i = 0; i < ops / 2; ++i) {
      harness::maybe_timed(sampler, [&] {
        while (!q.try_push(i & 0xffff, h)) {
        }
      });
      harness::maybe_timed(sampler, [&] { (void)q.try_pop(h); });
    }
  };
}

// (c) 50%/50% random mix.
template <concepts::Queue Q>
Workload<Q> mixed_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256& rng,
            std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (rng.chance_pct(50)) {
        while (!q.try_push(i & 0xffff, h)) {
          if (!q.try_pop(h)) break;  // bounded queue full: make room
        }
      } else {
        (void)q.try_pop(h);
      }
    }
  };
}

// (c') 50%/50% random mix with per-op latency sampling.
template <concepts::Queue Q>
TimedWorkload<Q> mixed_timed_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256& rng, std::uint64_t ops,
            harness::OpSampler& sampler) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (rng.chance_pct(50)) {
        harness::maybe_timed(sampler, [&] {
          while (!q.try_push(i & 0xffff, h)) {
            if (!q.try_pop(h)) break;  // bounded queue full: make room
          }
        });
      } else {
        harness::maybe_timed(sampler, [&] { (void)q.try_pop(h); });
      }
    }
  };
}

// Memory test workload (Figure 10): random mix with tiny random delays
// between operations, which the paper found amplifies memory artifacts.
template <concepts::Queue Q>
Workload<Q> memory_test_workload() {
  return [](Q& q, typename Q::handle& h, Xoshiro256& rng,
            std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (rng.chance_pct(50)) {
        while (!q.try_push(i & 0xffff, h)) {
          if (!q.try_pop(h)) break;
        }
      } else {
        (void)q.try_pop(h);
      }
      spin_delay(rng.next_below(32));
    }
  };
}

// Slow-path observability for the ablation drivers, constrained on the
// ObservableQueue refinement (no reaching into backend internals).
template <concepts::ObservableQueue Q>
double slow_per_1k_ops(const Q& q, std::uint64_t total_ops) {
  const auto st = q.stats();
  return 1000.0 *
         static_cast<double>(st.slow_enqueues + st.slow_dequeues) /
         static_cast<double>(total_ops);
}

template <concepts::ObservableQueue Q>
double helps_per_1k_ops(const Q& q, std::uint64_t total_ops) {
  return 1000.0 * static_cast<double>(q.stats().helps) /
         static_cast<double>(total_ops);
}

inline void emit(const harness::SeriesTable& table, int argc, char** argv) {
  table.print(std::cout);
  if (harness::want_csv(argc, argv)) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
}

inline void emit_metrics(const harness::MetricsTable& table, int argc,
                         char** argv) {
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
