// Figure 10 — the memory test: (a) memory consumed, (b) throughput.
// 50%/50% random operations with tiny random delays (the paper found
// the delays amplify memory-efficiency artifacts). Every queue routes
// its allocations through the counting allocator, so "memory consumed"
// is the peak live bytes the algorithm requested; a second table
// reports the kernel's peak RSS over the same run (rearmed per series
// via /proc/self/clear_refs) so allocator slack is visible too.
// Expected shape: LCRQ's closed-ring churn and FAA's segments now
// retire through the shared SMR layer, so their peaks track the
// *in-flight* rings/segments (bounded by the amnesty threshold) rather
// than growing with total ops the way the old leak-until-destructor
// behaviour did; MSQ likewise frees dequeued nodes as it goes. wCQ/SCQ
// stay at their statically allocated ring (~1-2 MB at the paper's
// 2^16-slot size).
#include <memory>

#include "bench_common.hpp"
#include "common/mem_stats.hpp"

namespace wcq::bench {
namespace {

template <wcq::concepts::Queue Q>
void memory_series(harness::SeriesTable& mem_table,
                   harness::SeriesTable& rss_table,
                   harness::SeriesTable& tput_table,
                   const std::vector<unsigned>& sweep,
                   std::uint64_t total_ops, unsigned runs) {
  auto workload = memory_test_workload<Q>();
  for (unsigned threads : sweep) {
    const wcq::options opts = wcq::options{}.max_threads(threads + 2);
    std::unique_ptr<Q> q;
    const std::uint64_t per_thread = total_ops / threads;
    auto setup = [&] {
      q.reset();  // destroy previous instance first
      mem::reset();
      mem::reset_peak_rss();
      q = std::make_unique<Q>(opts);
    };
    auto body = [&](unsigned worker) {
      auto handle = q->get_handle();
      Xoshiro256 rng(0x9999u + worker * 31337u);
      workload(*q, handle, rng, per_thread);
    };
    const auto res =
        harness::repeat_measure(runs, threads, per_thread * threads, setup,
                                body);
    const double peak_mb =
        static_cast<double>(mem::stats().peak_bytes) / (1024.0 * 1024.0);
    const double rss_mb =
        static_cast<double>(mem::peak_rss_bytes()) / (1024.0 * 1024.0);
    mem_table.set(Q::kName, threads, peak_mb);
    rss_table.set(Q::kName, threads, rss_mb);
    tput_table.set(Q::kName, threads, res.mean_mops);
    std::cerr << "  " << Q::kName << " @" << threads << ": " << peak_mb
              << " MB peak (alloc), " << rss_mb << " MB peak (RSS), "
              << res.mean_mops << " Mops/s\n";
  }
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  harness::SeriesTable mem_table("Figure 10a: memory usage (allocator peak)",
                                 "threads", "MB peak");
  harness::SeriesTable rss_table("Figure 10a-rss: memory usage (peak RSS)",
                                 "threads", "MB peak RSS");
  harness::SeriesTable tput_table("Figure 10b: memory-test throughput",
                                  "threads", "Mops/sec");
  const auto sweep = default_threads();
  // The delay-laden workload is slower per op; trim the default.
  const std::uint64_t ops = default_ops() / 4;
  const unsigned runs = default_runs();

  if (!mem::reset_peak_rss()) {
    std::cerr << "note: /proc/self/clear_refs refused; peak-RSS column is "
                 "cumulative across series\n";
  }

  memory_series<harness::FaaAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::WcqAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::NcqAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::CcqAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::ScqAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::MsqAdapter>(mem_table, rss_table, tput_table, sweep,
                                     ops, runs);
  memory_series<harness::LcrqAdapter>(mem_table, rss_table, tput_table, sweep,
                                      ops, runs);
  memory_series<harness::LscqAdapter>(mem_table, rss_table, tput_table, sweep,
                                      ops, runs);

  emit(mem_table, argc, argv);
  emit(rss_table, argc, argv);
  emit(tput_table, argc, argv);
  return 0;
}
