// Shard-sweep scaling bench for wcq::sharded: pairwise throughput and
// service-time percentiles over shard counts x thread counts x
// pickers, against the single-ring baselines, plus an open-loop phase
// at a fixed offered rate (PR 8 methodology — response time measured
// from the scheduled arrival, so pacer backlog is charged like an SLO
// would charge it).
//
// Series named like "wCQ shard=4/rr" are the sharded layer over that
// backend; "wCQ" and "FAA" are the unsharded baselines. The "+batch"
// series drive the batch API (try_push_n/try_pop_n) with
// WCQ_BENCH_BATCH values per call — over FAA that is the native
// single-FAA ticket burst, the config the PR 9 acceptance criterion
// (>= 2x single-ring wCQ pairwise at max threads) is expected from.
//
// Knobs on top of the usual WCQ_BENCH_OPS/RUNS/THREADS/RATE/ARRIVAL:
//   WCQ_BENCH_SHARDS  comma list of shard counts (default "2,4", plus
//                     the topology recommendation when it differs)
//   WCQ_BENCH_BATCH   values per batch call (default 64)
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/topology.hpp"
#include "wcq/sharded.hpp"

namespace wcq::bench {
namespace {

std::vector<unsigned> shard_sweep() {
  std::vector<unsigned> out;
  if (const char* v = std::getenv("WCQ_BENCH_SHARDS"); v && *v) {
    for (const char* p = v; *p != '\0';) {
      char* end = nullptr;
      const unsigned long n = std::strtoul(p, &end, 10);
      if (end == p) break;
      out.push_back(static_cast<unsigned>(n));
      p = *end == ',' ? end + 1 : end;
    }
  }
  if (out.empty()) {
    out = {2, 4};
    const unsigned rec = topo::recommended_shards();
    if (rec != 2 && rec != 4) out.push_back(rec);
  }
  return out;
}

unsigned batch_size() {
  if (const char* v = std::getenv("WCQ_BENCH_BATCH"); v && *v) {
    const unsigned n = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    if (n > 0) return n;
  }
  return 64;
}

// run_series_latency with an explicit series name: the sharded series
// are parameterized by shard count and picker, which a static kName
// cannot carry.
template <concepts::Queue Q>
void named_series_latency(harness::MetricsTable& table,
                          const std::string& name,
                          const TimedWorkload<Q>& workload,
                          const std::vector<unsigned>& threads_sweep,
                          std::uint64_t total_ops, unsigned runs,
                          const options& base_opts) {
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
    table.set(name, threads,
              harness::OpMetrics{res.mean_mops, res.latency.p50(),
                                 res.latency.p99(), res.latency.p999(),
                                 res.latency.max()});
    std::cerr << "  " << name << " @" << threads << ": " << res.mean_mops
              << " Mops/s (cv " << res.cv << ", p50 " << res.latency.p50()
              << "ns p99 " << res.latency.p99() << "ns)\n";
  }
}

// Pairwise through the batch API: one try_push_n + draining try_pop_n
// per `batch` values. The sampler times whole batch calls (they are
// the unit of work a batch user pays for); throughput is still
// reported per value, so batch and single-op series share an axis.
template <concepts::Queue Q>
TimedWorkload<Q> pairwise_batch_workload(unsigned batch) {
  return [batch](Q& q, typename Q::handle& h, Xoshiro256&,
                 std::uint64_t ops, harness::OpSampler& sampler) {
    std::vector<std::uint64_t> in(batch), out(batch);
    for (unsigned i = 0; i < batch; ++i) in[i] = i;
    for (std::uint64_t done = 0; done < ops / 2; done += batch) {
      harness::maybe_timed(sampler, [&] {
        std::size_t pushed = 0;
        while (pushed < batch) {
          pushed += q.try_push_n(in.data() + pushed, batch - pushed, h);
          if (pushed < batch) {
            // Bounded and full: make room like pairwise does.
            (void)q.try_pop_n(out.data(), batch - pushed, h);
          }
        }
      });
      harness::maybe_timed(sampler, [&] {
        std::size_t popped = 0;
        while (popped < batch) {
          const std::size_t k =
              q.try_pop_n(out.data() + popped, batch - popped, h);
          if (k == 0) break;  // another worker drained our values
          popped += k;
        }
      });
    }
  };
}

const char* policy_tag(shard_policy p) {
  return p == shard_policy::sticky ? "sticky" : "rr";
}

// Open-loop phase: fixed offered rate, response time from scheduled
// arrival (coordinated-omission-free), single-op series only — batch
// arrival processes are a different experiment.
template <concepts::Queue Q>
void openloop_series(harness::MetricsTable& table, const std::string& name,
                     const std::vector<unsigned>& sweep,
                     std::uint64_t total_arrivals, unsigned runs,
                     double total_rate_hz, bool poisson,
                     const options& base_opts) {
  for (unsigned threads : sweep) {
    options opts = base_opts;
    opts.max_threads(threads + 2);
    std::unique_ptr<Q> q;
    std::vector<std::unique_ptr<typename Q::handle>> handles;
    const std::uint64_t per_thread = total_arrivals / threads;
    const double rate_per_thread = total_rate_hz / threads;
    auto setup = [&] {
      handles.clear();
      q = std::make_unique<Q>(opts);
      handles.resize(threads);
    };
    auto op = [&](unsigned worker) {
      auto& h = handles[worker];
      if (!h) h = std::make_unique<typename Q::handle>(q->get_handle());
      while (!q->try_push(worker, *h)) {
        if (!q->try_pop(*h)) break;
      }
      (void)q->try_pop(*h);
    };
    const auto res = harness::open_loop_measure(
        runs, threads, per_thread, rate_per_thread, poisson, setup, op);
    table.set(name, threads,
              harness::OpMetrics{res.achieved_mops, res.response.p50(),
                                 res.response.p99(), res.response.p999(),
                                 res.response.max()});
    std::cerr << "  " << name << " @" << threads << ": achieved "
              << res.achieved_mops << " Mops/s (response p50 "
              << res.response.p50() << "ns p99 " << res.response.p99()
              << "ns)\n";
  }
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  using ShardedWcq = harness::ShardedWcqAdapter;
  using ShardedFaa = harness::ShardedFaaAdapter;

  const auto threads = default_threads();
  const std::uint64_t ops = default_ops();
  const unsigned runs = default_runs();
  const auto shards = shard_sweep();
  const unsigned batch = batch_size();

  {
    const auto& t = topo::cpu_topology();
    std::cerr << "sharded scaling: " << t.cpus << " cpus / "
              << t.clusters.size() << " clusters, recommended shards "
              << topo::recommended_shards() << ", batch " << batch << "\n";
  }

  // ---- closed-loop pairwise: throughput + service percentiles ----
  harness::MetricsTable closed("Sharded pairwise scaling (closed loop)",
                               "threads");

  // Single-ring baselines — "wCQ" is the series the >= 2x acceptance
  // criterion compares against.
  named_series_latency<harness::WcqAdapter>(
      closed, "wCQ", pairwise_timed_workload<harness::WcqAdapter>(), threads,
      ops, runs, options{});
  named_series_latency<harness::FaaAdapter>(
      closed, "FAA", pairwise_timed_workload<harness::FaaAdapter>(), threads,
      ops, runs, options{});

  // Sharded wCQ: shard count x picker sweep, single-op pairwise.
  for (const unsigned s : shards) {
    for (const auto pol : {shard_policy::round_robin, shard_policy::sticky}) {
      const std::string name = "wCQ shard=" + std::to_string(s) + "/" +
                               policy_tag(pol);
      named_series_latency<ShardedWcq>(
          closed, name, pairwise_timed_workload<ShardedWcq>(), threads, ops,
          runs, options{}.shards(s).shard_policy(pol));
    }
  }

  // Batch series: the amortization story. Over FAA the whole chunk is
  // one ticket burst; over wCQ it is one shard selection per chunk.
  for (const unsigned s : shards) {
    named_series_latency<ShardedWcq>(
        closed, "wCQ shard=" + std::to_string(s) + "/rr+batch",
        pairwise_batch_workload<ShardedWcq>(batch), threads, ops, runs,
        options{}.shards(s).batch_limit(batch));
    named_series_latency<ShardedFaa>(
        closed, "FAA shard=" + std::to_string(s) + "/rr+batch",
        pairwise_batch_workload<ShardedFaa>(batch), threads, ops, runs,
        options{}.shards(s).batch_limit(batch));
  }

  // ---- open-loop: offered-rate response times ----
  harness::MetricsTable open("Sharded open-loop response time", "threads");
  const double rate = default_rate_hz();
  const bool poisson = default_poisson();
  // A slice of the arrivals keeps the open-loop phase proportionate.
  const std::uint64_t arrivals = ops / 2;
  openloop_series<harness::WcqAdapter>(open, "wCQ", threads, arrivals, runs,
                                       rate, poisson, options{});
  for (const unsigned s : shards) {
    openloop_series<ShardedWcq>(
        open, "wCQ shard=" + std::to_string(s) + "/rr", threads, arrivals,
        runs, rate, poisson, options{}.shards(s));
  }

  emit_metrics(closed, argc, argv);
  std::cout << "\n";
  emit_metrics(open, argc, argv);
  return 0;
}
