// Fixed-bucket HDR-style latency histogram plus the sampling helpers
// the benches record through.
//
// Layout: log-linear buckets over nanoseconds. Tier 0 covers [0, 64)
// with exact 1-ns buckets; every higher tier holds 32 buckets of
// doubling width, so any recorded value lands in a bucket whose width
// is at most 1/32 (~3.1%) of the value — the same relative-precision
// contract HdrHistogram makes at 2 significant digits, but with a
// fixed 15 KB footprint, no allocation, and trivially mergeable
// counts. The full uint64 nanosecond range is covered (58 tiers), so
// no clamping path exists to lie about outliers; max is tracked
// exactly on the side.
//
// Concurrency model: recording is *per-thread* — each worker owns a
// LatencyHistogram (plain uint64 counts, no atomics, no sharing, so
// the hot path is one array increment) and the driver merges the
// per-thread histograms after the workers join. merge() is plain
// count addition, which is also what makes per-run histograms
// combinable across repeat_measure's runs.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>

namespace wcq::harness {

class LatencyHistogram {
 public:
  // 32 sub-buckets per power-of-two tier => <= 1/32 relative error.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Tier 0: 2*kSub exact buckets; tiers 1..58 cover the rest of u64.
  static constexpr unsigned kBucketCount =
      static_cast<unsigned>((64 - kSubBits - 1 + 1) * kSub + kSub);

  LatencyHistogram() { reset(); }

  void reset() {
    for (auto& c : counts_) c = 0;
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = ~std::uint64_t{0};
  }

  // Which bucket a value lands in. Tier 0 is exact; above it the tier
  // is the value's magnitude and the sub-bucket its next 5 bits.
  static constexpr unsigned bucket_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned tier = msb - kSubBits;  // >= 1
    const unsigned sub = static_cast<unsigned>((v >> tier) - kSub);
    return (tier + 1) * static_cast<unsigned>(kSub) + sub;
  }

  // Smallest value mapping to `index` (inverse of bucket_of).
  static constexpr std::uint64_t bucket_low(unsigned index) {
    if (index < 2 * kSub) return index;
    const unsigned tier = index / static_cast<unsigned>(kSub) - 1;
    const std::uint64_t sub = index % kSub;
    return (kSub + sub) << tier;
  }

  // Largest value mapping to `index`.
  static constexpr std::uint64_t bucket_high(unsigned index) {
    return index + 1 < kBucketCount ? bucket_low(index + 1) - 1
                                    : ~std::uint64_t{0};
  }

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (v < min_) min_ = v;
  }

  // Fold another histogram's samples into this one.
  void merge(const LatencyHistogram& o) {
    for (unsigned i = 0; i < kBucketCount; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    if (o.min_ < min_) min_ = o.min_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  // Upper bound of the bucket holding the pct-th percentile sample
  // (HdrHistogram's "highest equivalent value" convention), capped at
  // the exact max so p100 == max().
  std::uint64_t value_at_percentile(double pct) const {
    if (count_ == 0) return 0;
    if (pct < 0.0) pct = 0.0;
    if (pct > 100.0) pct = 100.0;
    std::uint64_t want =
        static_cast<std::uint64_t>(pct / 100.0 * static_cast<double>(count_) +
                                   0.5);
    if (want < 1) want = 1;
    if (want > count_) want = count_;
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kBucketCount; ++i) {
      cum += counts_[i];
      if (cum >= want) {
        const std::uint64_t high = bucket_high(i);
        return high < max_ ? high : max_;
      }
    }
    return max_;
  }

  std::uint64_t p50() const { return value_at_percentile(50.0); }
  std::uint64_t p99() const { return value_at_percentile(99.0); }
  std::uint64_t p999() const { return value_at_percentile(99.9); }

 private:
  std::uint64_t counts_[kBucketCount];
  std::uint64_t count_;
  std::uint64_t sum_;
  std::uint64_t max_;
  std::uint64_t min_;
};

// Monotonic nanosecond clock every latency measurement in the harness
// reads (one definition so open-loop deadlines and service timestamps
// are on the same timebase).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Samples 1 of every `period` operations into a histogram (period
// rounded up to a power of two so arming is one mask test). Timing
// every op roughly doubles the cost of a ~40 ns queue op on the clock
// calls alone, which would turn a throughput figure into a clock
// benchmark; sampling keeps the perturbation under a few percent while
// a 10M-op run still collects ~150k+ samples per series.
class OpSampler {
 public:
  explicit OpSampler(LatencyHistogram& hist, unsigned period = 64)
      : hist_(hist), mask_(std::bit_ceil(period ? period : 1u) - 1) {}

  // True when the upcoming op should be timed.
  bool arm() { return (++tick_ & mask_) == 0; }

  void record_ns(std::uint64_t ns) { hist_.record(ns); }

 private:
  LatencyHistogram& hist_;
  unsigned mask_;
  unsigned tick_ = 0;
};

// The sampler of the throughput-only figures. Even 1-in-64 sampling
// costs a sub-ns op (SCQ's empty dequeue) 2.5-3.4x in loop overhead, so
// these figures time nothing: arm() is constant false, maybe_timed
// folds to the bare op, and the loop compiles as if it had no sampler.
class Untimed {
 public:
  Untimed(LatencyHistogram&, unsigned) {}

  static constexpr bool arm() { return false; }

  void record_ns(std::uint64_t) {}
};

// Run `op` once, timing it iff the sampler elects this op.
template <typename Sampler, typename Op>
inline void maybe_timed(Sampler& s, Op&& op) {
  if (s.arm()) {
    const std::uint64_t t0 = now_ns();
    op();
    s.record_ns(now_ns() - t0);
  } else {
    op();
  }
}

}  // namespace wcq::harness
