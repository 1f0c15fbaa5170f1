// Ablation A3 — Cache_Remap (§2): the position permutation that puts
// adjacent ring slots on different cache lines. With it disabled,
// consecutive Head/Tail positions contend for the same line and
// throughput should drop under concurrency, for both wCQ and SCQ.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  harness::Table table("Ablation A3: Cache_Remap on/off (pairwise)",
                       "threads");
  harness::for_each_queue(
      harness::QueueList<harness::WcqAdapter, harness::ScqAdapter>{},
      [&]<typename Q>() {
        for (const bool remap : {true, false}) {
          sweep<Q, harness::Untimed>(
              table, std::string(Q::kName) + (remap ? "+remap" : "-remap"),
              options{}.remap(remap), Pairwise{});
        }
      });
  emit(table, argc, argv);
  return 0;
}
