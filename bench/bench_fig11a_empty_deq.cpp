// Figure 11a — empty-dequeue throughput, x86-64.
// Dequeue in a tight loop on an always-empty queue. wCQ and SCQ lead
// in the paper thanks to the Threshold fast exit; FAA does poorly
// because it still pays an RMW per call.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  harness::Table table("Figure 11a: empty Dequeue throughput", "threads");
  bench::sweep_lineup<harness::Untimed>(table, harness::PaperQueues{},
                                        bench::EmptyDequeue{});
  bench::emit(table, argc, argv);
  return 0;
}
