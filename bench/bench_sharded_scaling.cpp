// Shard-sweep scaling bench for wcq::sharded: pairwise throughput and
// service-time percentiles over shard counts x thread counts x
// pickers, against the single-ring baselines, plus an open-loop phase
// at a fixed offered rate (response time measured from the scheduled
// arrival, so pacer backlog is charged like an SLO would charge it).
//
// Series named like "wCQ shard=4/rr" are the sharded layer over that
// backend; "wCQ" and "FAA" are the unsharded baselines. The "+batch"
// series drive the batch API (try_push_n/try_pop_n) with kBatchChunk
// (64) values per call — over both backends a native ticket burst: one
// FAA per chunk over FAA, one F&A per ring per chunk over wCQ. The
// FAA config is the one expected to reach >= 2x single-ring wCQ
// pairwise at max threads.
//
// Knob on top of the usual WCQ_BENCH_OPS/RUNS/THREADS/RATE/ARRIVAL:
//   WCQ_BENCH_SHARDS  comma list of shard counts (default "1,2,4")
#include "bench_common.hpp"
#include "wcq/sharded.hpp"

namespace wcq::bench {
namespace {

// Pairwise through the batch API: one try_push_n + draining try_pop_n
// per kBatch values. The sampler times whole batch calls (they are
// the unit of work a batch user pays for); throughput is still
// reported per value, so batch and single-op series share an axis.
struct BatchPairwise {
  static constexpr unsigned kBatch = kBatchChunk;

  template <concepts::Queue Q, typename Sampler>
  void operator()(Q& q, typename Q::handle& h, Xoshiro256&,
                  std::uint64_t ops, Sampler& s) const {
    std::vector<std::uint64_t> in(kBatch), out(kBatch);
    for (unsigned i = 0; i < kBatch; ++i) in[i] = i;
    for (std::uint64_t done = 0; done < ops / 2; done += kBatch) {
      harness::maybe_timed(s, [&] {
        std::size_t pushed = 0;
        while (pushed < kBatch) {
          pushed += q.try_push_n(in.data() + pushed, kBatch - pushed, h);
          if (pushed < kBatch) {
            // Bounded and full: make room like pairwise does.
            (void)q.try_pop_n(out.data(), kBatch - pushed, h);
          }
        }
      });
      harness::maybe_timed(s, [&] {
        std::size_t popped = 0;
        while (popped < kBatch) {
          const std::size_t k =
              q.try_pop_n(out.data() + popped, kBatch - popped, h);
          if (k == 0) break;  // another worker drained our values
          popped += k;
        }
      });
    }
  }
};

const char* policy_tag(shard_policy p) {
  return p == shard_policy::sticky ? "sticky" : "rr";
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  using harness::OpSampler;
  using ShardedWcq = harness::ShardedWcqAdapter;
  using ShardedFaa = harness::ShardedFaaAdapter;

  const auto shard_counts =
      harness::env_counts("WCQ_BENCH_SHARDS", {1, 2, 4}, options::kMaxShards);
  const std::vector<unsigned> shards(shard_counts.begin(), shard_counts.end());
  const auto tag = [](unsigned s) { return "shard=" + std::to_string(s); };

  // ---- closed-loop pairwise: throughput + service percentiles ----
  harness::Table closed("Sharded pairwise scaling (closed loop)", "threads");

  // Single-ring baselines — "wCQ" is the series the >= 2x criterion
  // compares against.
  sweep<harness::WcqAdapter, OpSampler>(closed, "wCQ", options{}, Pairwise{});
  sweep<harness::FaaAdapter, OpSampler>(closed, "FAA", options{}, Pairwise{});

  // Sharded wCQ: shard count x picker sweep, single-op pairwise.
  for (const unsigned s : shards) {
    for (const auto pol : {shard_policy::round_robin, shard_policy::sticky}) {
      sweep<ShardedWcq, OpSampler>(
          closed, "wCQ " + tag(s) + "/" + policy_tag(pol),
          options{}.shards(s).shard_policy(pol), Pairwise{});
    }
  }

  // Batch series: the amortization story. A chunk is one shard
  // selection and one ticket burst: one FAA over FAA, one F&A per ring
  // over wCQ.
  for (const unsigned s : shards) {
    sweep<ShardedWcq, OpSampler>(closed, "wCQ " + tag(s) + "/rr+batch",
                                 options{}.shards(s), BatchPairwise{});
    sweep<ShardedFaa, OpSampler>(closed, "FAA " + tag(s) + "/rr+batch",
                                 options{}.shards(s), BatchPairwise{});
  }

  // ---- open-loop: offered-rate response times ----
  harness::Table open("Sharded open-loop response time", "threads");
  // A slice of the arrivals keeps the open-loop phase proportionate.
  const std::uint64_t arrivals = default_ops() / 2;
  open_loop_sweep<harness::WcqAdapter>(open, "wCQ", options{}, arrivals);
  for (const unsigned s : shards) {
    open_loop_sweep<ShardedWcq>(open, "wCQ " + tag(s) + "/rr",
                                options{}.shards(s), arrivals);
  }

  emit(closed, argc, argv);
  std::cout << "\n";
  emit(open, argc, argv);
  return 0;
}
