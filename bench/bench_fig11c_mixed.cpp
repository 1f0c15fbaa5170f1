// Figure 11c — 50%/50% random Enqueue/Dequeue, x86-64, latency-first.
// The paper shows wCQ ≈ SCQ ≈ YMC, with wCQ slightly ahead of SCQ
// (larger entries reduce contention), LCRQ typically on top, the
// CAS-based queues far below. Rows carry throughput plus sampled
// per-op service-latency percentiles.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  harness::Table table("Figure 11c: 50%/50% Enqueue-Dequeue", "threads");
  bench::sweep_lineup<harness::OpSampler>(table, harness::PaperQueues{},
                                          bench::Mixed{});
  bench::emit(table, argc, argv);
  return 0;
}
