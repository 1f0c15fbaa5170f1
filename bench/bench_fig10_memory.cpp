// Figure 10 — the memory test: (a) memory consumed, (b) throughput.
// 50%/50% random operations with tiny random delays (the paper found
// the delays amplify memory-efficiency artifacts). Every queue routes
// its allocations through the counting allocator, so "memory consumed"
// is the peak live bytes the algorithm requested; a second column
// reports the kernel's peak RSS over the same run (rearmed per queue
// instance via /proc/self/clear_refs) so allocator slack is visible too.
// Expected shape: wCQ/SCQ stay at their statically allocated ring
// (~1-2 MB at the paper's 2^16-slot size). LCRQ's closed rings, LSCQ's
// segments, MSQ's nodes and FAA's segments retire through the shared
// SMR layer. LCRQ, LSCQ and MSQ protect them with hazard pointers, so a
// stalled thread holds back only what its hazards name, and their
// peaks track the in-flight rings/nodes plus the amnesty threshold.
// FAA walks its segments under epoch pins (faa_queue.hpp), so its peak
// is bounded only while every thread keeps moving, as here: one thread
// parked inside an operation holds back every segment retired after it
// pinned, and FAA grows without bound (a run at order 10 with one
// thread parked and two churning for 2 s took it from 0.12 to 81 MB).
// FAA is the lineup's unbounded-under-stall example, the role YMC
// plays in the paper's Figure 10.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wcq;
  using namespace wcq::bench;
  harness::Table table(
      "Figure 10: memory test, (a) peak memory and (b) throughput",
      "threads");
  // The delay-laden workload is slower per op; trim the default.
  const std::uint64_t ops = default_ops() / 4;
  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };

  if (!mem::reset_peak_rss()) {
    std::cerr << "note: /proc/self/clear_refs refused; rss_peak_mb is "
                 "cumulative across series\n";
  }

  harness::for_each_queue(harness::PaperQueues{}, [&]<typename Q>() {
    for (const unsigned threads : harness::sweep_thread_counts()) {
      const auto p =
          measure<Q, harness::Untimed>(threads, options{}, Mixed{32}, ops);
      record(table, Q::kName, threads, p.result);
      table.set(Q::kName, threads, "alloc_peak_mb",
                mib(mem::stats().peak_bytes));
      table.set(Q::kName, threads, "rss_peak_mb", mib(mem::peak_rss_bytes()));
    }
  });
  emit(table, argc, argv);
  return 0;
}
