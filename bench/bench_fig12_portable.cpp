// Figure 12 (a,b,c) — the PowerPC experiments: empty-dequeue, pairwise
// and 50/50 throughput with the §4 portable wCQ build (no pointer-wide
// CAS2 on Head/Tail; split entry CAS2). As in the paper, the portable
// build differs from native wCQ only on the slow path where libatomic
// reports its 16-byte CAS lock-free: both fast paths then mutate
// entries with the same single-word CAS, and only the slow path's CAS2
// takes the __atomic route. Where libatomic does not (gcc 12.2's, on
// x86-64), the portable fast path keeps a CAS2 per entry mutation, and
// this figure prices that too. LCRQ is absent, exactly as in
// the paper (it requires true CAS2 and cannot run on POWER).
//
// Substitution note (DESIGN.md §3): the POWER machine is stood in for
// by running the *portable algorithm* on x86 — the algorithmic
// differences of the LL/SC design are exercised; the ISA is not.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const harness::Fig12Queues lineup;

  harness::Table fig_a("Figure 12a: empty Dequeue (portable/LLSC wCQ)",
                       "threads");
  sweep_lineup<harness::Untimed>(fig_a, lineup, EmptyDequeue{});
  emit(fig_a, argc, argv);

  harness::Table fig_b("Figure 12b: pairwise (portable/LLSC wCQ)", "threads");
  sweep_lineup<harness::Untimed>(fig_b, lineup, Pairwise{});
  emit(fig_b, argc, argv);

  harness::Table fig_c("Figure 12c: 50%/50% (portable/LLSC wCQ)", "threads");
  sweep_lineup<harness::Untimed>(fig_c, lineup, Mixed{});
  emit(fig_c, argc, argv);
  return 0;
}
