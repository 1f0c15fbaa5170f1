// Figure 12 (a,b,c) — the PowerPC experiments: empty-dequeue, pairwise
// and 50/50 throughput with the §4 portable wCQ build (no pointer-wide
// CAS2 on Head/Tail; split entry CAS2). LCRQ is absent, exactly as in
// the paper (it requires true CAS2 and cannot run on POWER).
//
// Substitution note (DESIGN.md §3): the POWER machine is stood in for
// by running the *portable algorithm* on x86 — the algorithmic
// differences of the LL/SC design are exercised; the ISA is not.
#include "bench_common.hpp"

namespace wcq::bench {
namespace {

template <typename MakeWorkload>
void run_fig12_queues(harness::SeriesTable& table, MakeWorkload make,
                      const std::vector<unsigned>& threads,
                      std::uint64_t total_ops, unsigned runs) {
  run_series<harness::FaaAdapter>(
      table, make.template operator()<harness::FaaAdapter>(), threads,
      total_ops, runs);
  run_series<harness::WcqPortableAdapter>(
      table, make.template operator()<harness::WcqPortableAdapter>(), threads,
      total_ops, runs);
  run_series<harness::CcqAdapter>(
      table, make.template operator()<harness::CcqAdapter>(), threads,
      total_ops, runs);
  run_series<harness::ScqAdapter>(
      table, make.template operator()<harness::ScqAdapter>(), threads,
      total_ops, runs);
  run_series<harness::MsqAdapter>(
      table, make.template operator()<harness::MsqAdapter>(), threads,
      total_ops, runs);
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  const auto threads = default_threads();
  const std::uint64_t ops = default_ops();
  const unsigned runs = default_runs();

  harness::SeriesTable fig_a("Figure 12a: empty Dequeue (portable/LLSC wCQ)",
                             "threads", "Mops/sec");
  auto make_a = []<typename A>() { return empty_dequeue_workload<A>(); };
  run_fig12_queues(fig_a, make_a, threads, ops, runs);
  emit(fig_a, argc, argv);

  harness::SeriesTable fig_b("Figure 12b: pairwise (portable/LLSC wCQ)",
                             "threads", "Mops/sec");
  auto make_b = []<typename A>() { return pairwise_workload<A>(); };
  run_fig12_queues(fig_b, make_b, threads, ops, runs);
  emit(fig_b, argc, argv);

  harness::SeriesTable fig_c("Figure 12c: 50%/50% (portable/LLSC wCQ)",
                             "threads", "Mops/sec");
  auto make_c = []<typename A>() { return mixed_workload<A>(); };
  run_fig12_queues(fig_c, make_c, threads, ops, runs);
  emit(fig_c, argc, argv);
  return 0;
}
