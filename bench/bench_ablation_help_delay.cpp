// Ablation A2 — HELP_DELAY: every thread checks one peer for a pending
// help request each HELP_DELAY operations (§3.1 "to amortize the cost
// of help_threads"). Smaller values react to stuck threads faster but
// tax the fast path; this sweep quantifies the trade.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const unsigned threads = harness::sweep_thread_counts().back();
  harness::Table table("Ablation A2: wCQ pairwise vs HELP_DELAY",
                       "help_delay");

  for (const unsigned delay : {1u, 4u, 16u, 64u, 256u}) {
    const auto p = measure<harness::WcqAdapter, harness::Untimed>(
        threads, options{}.help_delay(delay), Pairwise{});
    record(table, "pairwise", delay, p.result);
    table.set("pairwise", delay, "helps_per_1k",
              1000.0 * static_cast<double>(p.queue->stats().helps) /
                  static_cast<double>(p.ops));
  }
  emit(table, argc, argv);
  return 0;
}
