// Figure 11b — pairwise Enqueue-Dequeue, x86-64, latency-first: each
// thread alternates Enqueue and Dequeue in a tight loop (the paper
// shows wCQ ≈ SCQ ≈ LCRQ on top, YMC and the rest below), and besides
// throughput every row now carries sampled per-op service-latency
// percentiles — for a wait-free queue the p99.9/max columns are the
// point, since bounded per-op steps is the property being sold.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  harness::Table table("Figure 11b: pairwise Enqueue-Dequeue", "threads");
  bench::sweep_lineup<harness::OpSampler>(table, harness::PaperQueues{},
                                          bench::Pairwise{});
  bench::emit(table, argc, argv);
  return 0;
}
