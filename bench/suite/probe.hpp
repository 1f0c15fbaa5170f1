// Measurement probes for the wCQ benchmark suite: a log-linear latency
// histogram, a 1-in-64 call sampler, and span recording into
// preallocated per-thread buffers that are written out as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing).
//
// The suite measures the library from outside, so every probe sits at
// a call site in the workload code, around a public queue call.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace suite {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log-linear histogram over nanoseconds: exact 1-ns buckets below 64,
// then 32 buckets per power of two (<= 1/32 relative width). Owned by
// one thread while recording; merged after the threads join.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    max_ = std::max(max_, v);
  }

  void merge(const Histogram& o) {
    for (unsigned i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    max_ = std::max(max_, o.max_);
  }

  void clear() { *this = Histogram{}; }

  std::uint64_t count() const { return count_; }
  double max() const { return static_cast<double>(max_); }

  // Value at quantile q in [0, 1], interpolated linearly inside the
  // bucket that holds rank q*count, so a percentile is not pinned to a
  // bucket edge. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    std::uint64_t below = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        const double lo = static_cast<double>(bucket_low(i));
        const double hi = static_cast<double>(bucket_low(i + 1));
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(counts_[i]);
        return std::min(lo + (hi - lo) * frac, max());
      }
      below += counts_[i];
    }
    return max();
  }

  // Quantile q capped at 1 - 10/count, so at least ten samples lie
  // beyond any reported tail percentile.
  double tail_quantile(double q) const {
    if (count_ == 0) return 0.0;
    return quantile(std::min(q, 1.0 - 10.0 / static_cast<double>(count_)));
  }

 private:
  static unsigned bucket_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned tier = msb - kSubBits;
    return (tier + 1) * static_cast<unsigned>(kSub) +
           static_cast<unsigned>((v >> tier) - kSub);
  }

  static std::uint64_t bucket_low(unsigned i) {
    if (i < 2 * kSub) return i;
    const unsigned tier = i / static_cast<unsigned>(kSub) - 1;
    return (kSub + i % kSub) << tier;
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

// One recorded interval. `async` spans (a message's life from its
// scheduled send to its pop) cross threads and become a Perfetto
// async track; the rest are thread-local complete events.
struct Span {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  bool async;
};

// Preallocated span buffer of one thread. Spans past capacity are
// counted, not stored, so recording never allocates.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 8192;

  SpanLog(unsigned tid, std::string label)
      : tid_(tid), label_(std::move(label)) {
    spans_.reserve(kCapacity);
  }

  std::uint64_t next_id() { return (std::uint64_t{tid_} + 1) << 48 | ++ids_; }

  void add(const Span& s) {
    if (spans_.size() < kCapacity) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  void clear() {
    spans_.clear();
    dropped_ = 0;
  }

  // Index the next add() stores at, for a later set_op().
  std::size_t size() const { return spans_.size(); }

  void set_op(std::size_t i, std::uint64_t op) {
    if (i < spans_.size()) spans_[i].op = op;
  }

  unsigned tid() const { return tid_; }
  const std::string& label() const { return label_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  unsigned tid_;
  std::string label_;
  std::vector<Span> spans_;
  std::uint64_t ids_ = 0;
  std::uint64_t dropped_ = 0;
};

// Chrome trace-event JSON: one complete ("X") event per thread span,
// a begin/end pair per async span. Timestamps are microseconds from
// `origin`. False if the file cannot be written.
inline bool write_chrome_trace(const std::string& path, const char* process,
                               std::uint64_t origin,
                               const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t dropped = 0;
  for (const SpanLog* l : logs) dropped += l->dropped();
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"sampling\":\"1 in "
               "64\",\"spans_dropped\":%llu},\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped));
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process);
  auto us = [origin](std::uint64_t t) {
    return static_cast<double>(t - std::min(t, origin)) / 1000.0;
  };
  for (const SpanLog* l : logs) {
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 l->tid(), l->label().c_str());
    for (const Span& s : l->spans()) {
      const auto id = static_cast<unsigned long long>(s.id);
      const auto parent = static_cast<unsigned long long>(s.parent);
      const auto op = static_cast<unsigned long long>(s.op);
      if (s.async) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"b\","
                     "\"id\":\"0x%llx\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                     "\"args\":{\"op\":\"0x%llx\"}}"
                     ",\n{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"e\","
                     "\"id\":\"0x%llx\",\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                     s.name, id, l->tid(), us(s.start), op, s.name, id,
                     l->tid(), us(s.end));
      } else {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"queue\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":\"0x%llx\",\"parent\":\"0x%llx\","
                     "\"op\":\"0x%llx\"}}",
                     s.name, l->tid(), us(s.start),
                     static_cast<double>(s.end - s.start) / 1000.0, id,
                     parent, op);
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// One loop iteration in this many is timed (and traced).
inline constexpr unsigned kSamplePeriod = 64;

enum class Call { push, pop };

// The call site of an unsampled iteration: runs the queue call and
// nothing else, so 63 iterations in 64 are the bare workload loop.
struct Untimed {
  template <typename F>
  static auto call(Call, const char*, std::uint64_t, F&& f) {
    return f();
  }
  static void tag_last(std::uint64_t) {}
};

// The call site of the sampled iteration (one in kSamplePeriod): each queue
// call is timed into the push/pop histograms and, when Traced, also
// recorded as a span under an "iteration" parent span whose self time
// (the harness's own work) goes to `self_ns`. Untraced runs time the
// same calls, so the traced-vs-untraced difference is the span
// recording alone.
template <bool Traced>
class Probe {
 public:
  explicit Probe(SpanLog* log) : log_(log) {}

  void begin() {
    if constexpr (Traced) {
      iter_id_ = log_->next_id();
      child_ns_ = 0;
      iter_start_ = now_ns();
    }
  }

  // Runs f(), a public queue call named `name`, and times it. `op`
  // tags the span with the id of the value pushed.
  template <typename F>
  auto call(Call kind, const char* name, std::uint64_t op, F&& f) {
    const std::uint64_t t0 = now_ns();
    auto r = f();
    const std::uint64_t t1 = now_ns();
    (kind == Call::push ? push_ns : pop_ns).record(t1 - t0);
    if constexpr (Traced) {
      child_ns_ += t1 - t0;
      last_ = log_->size();
      log_->add({name, t0, t1, log_->next_id(), iter_id_, op, false});
    }
    return r;
  }

  // Tags the last call span with the id of the value it returned
  // (known only after a pop).
  void tag_last(std::uint64_t op) {
    if constexpr (Traced) log_->set_op(last_, op);
  }

  void end() {
    if constexpr (Traced) {
      const std::uint64_t t = now_ns();
      self_ns.record(t - iter_start_ - child_ns_);
      log_->add({"iteration", iter_start_, t, iter_id_, 0, 0, false});
    }
  }

  void clear() {
    push_ns.clear();
    pop_ns.clear();
    self_ns.clear();
    if constexpr (Traced) log_->clear();
  }

  Histogram push_ns;
  Histogram pop_ns;
  Histogram self_ns;

 private:
  SpanLog* log_;
  std::uint64_t iter_id_ = 0;
  std::uint64_t iter_start_ = 0;
  std::uint64_t child_ns_ = 0;
  std::size_t last_ = ~std::size_t{0};
};

}  // namespace suite
