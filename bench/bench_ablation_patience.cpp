// Ablation A1 — MAX_PATIENCE: how many fast-path attempts before the
// slow path. §6 of the paper sets 16 (enqueue) / 64 (dequeue) "which
// results in taking the slow path relatively infrequently"; this bench
// quantifies that choice: throughput and slow-path rate across
// patience values, under the pairwise and mixed workloads.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const unsigned threads = harness::sweep_thread_counts().back();
  harness::Table table("Ablation A1: wCQ throughput and slow paths vs "
                       "MAX_PATIENCE",
                       "patience");

  const auto patience_sweep = [&](const char* series, const auto& workload) {
    for (const unsigned patience : {1u, 4u, 16u, 64u, 256u}) {
      const auto p = measure<harness::WcqAdapter, harness::Untimed>(
          threads,
          options{}.patience(patience, patience * 4),  // the paper's 1:4
          workload);
      const auto st = p.queue->stats();
      record(table, series, patience, p.result);
      table.set(series, patience, "slow_per_1k",
                1000.0 *
                    static_cast<double>(st.slow_enqueues + st.slow_dequeues) /
                    static_cast<double>(p.ops));
    }
  };
  patience_sweep("pairwise", Pairwise{});
  patience_sweep("mixed", Mixed{});
  emit(table, argc, argv);
  return 0;
}
