// Ablation A4 — ring size (§6 uses 2^16-slot rings for wCQ/SCQ, and
// notes LCRQ-family rings need >= 2^12 cells "for better performance").
// Sweep the bounded-ring capacity order under the pairwise workload.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const unsigned threads = harness::sweep_thread_counts().back();
  harness::Table table("Ablation A4: ring capacity order (pairwise)",
                       "capacity_order");
  harness::for_each_queue(
      harness::QueueList<harness::WcqAdapter, harness::ScqAdapter>{},
      [&]<typename Q>() {
        for (const unsigned order : {8u, 10u, 12u, 15u, 17u}) {
          record(table, Q::kName, order,
                 measure<Q, harness::Untimed>(
                     threads, options{}.order(order), Pairwise{})
                     .result);
        }
      });
  emit(table, argc, argv);
  return 0;
}
