// Open-loop latency bench: arrival-rate-controlled load over the
// paper's queue lineup.
//
// Unlike the closed-loop figures (workers issue the next op the moment
// the previous returns, so the system always runs saturated and slow
// ops conveniently delay the offered load too — coordinated omission),
// each worker here follows its own arrival schedule at a fixed offered
// rate, independent of how fast the queue is. One arrival = one
// enqueue + one dequeue; its response time is measured from the
// *scheduled* arrival to completion, so pacer backlog (queueing delay)
// is charged to the op exactly like a latency SLO would charge it.
//
// Knobs (see docs/BENCHMARKING.md):
//   WCQ_BENCH_RATE     total offered ops/sec across workers, an integer
//                      (default 1000000)
//   WCQ_BENCH_ARRIVAL  poisson (default) | fixed
//   WCQ_BENCH_OPS      total arrivals per data point
//   WCQ_BENCH_THREADS / WCQ_BENCH_RUNS as everywhere else
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const std::uint64_t arrivals = default_ops();
  harness::Table table(std::string("Open-loop response time (") +
                           (default_poisson() ? "poisson" : "fixed") +
                           " arrivals)",
                       "threads");
  std::cerr << "open-loop: " << default_rate_hz()
            << " ops/s offered total, " << arrivals << " arrivals/point\n";

  harness::for_each_queue(harness::PaperQueues{}, [&]<typename Q>() {
    open_loop_sweep<Q>(table, Q::kName, options{}, arrivals);
  });
  // The sharding layer rides the same sweep: sharding should keep
  // response times flat as the offered load spreads over shards.
  using ShardedWcq = harness::ShardedWcqAdapter;
  open_loop_sweep<ShardedWcq>(table, ShardedWcq::kName, options{}, arrivals);

  emit(table, argc, argv);
  return 0;
}
