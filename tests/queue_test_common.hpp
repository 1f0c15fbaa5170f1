// Shared correctness checks, templated over wcq::concepts::Queue so
// every lineup entry faces the same battery. Each test binary selects
// checks; a non-zero exit (or abort) fails ctest.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/driver.hpp"
#include "harness/queue_adapters.hpp"
#include "wcq/concepts.hpp"
#include "wcq/options.hpp"

namespace wcq::test {

#define WCQ_CHECK(cond, ...)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s — ", __FILE__, __LINE__,     \
                   #cond);                                              \
      std::fprintf(stderr, __VA_ARGS__);                                \
      std::fprintf(stderr, "\n");                                       \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

// A raw backend's handle. Backends report exhausted handle slots as
// nullopt (only the wcq::queue facade throws); here exhaustion fails
// the test.
template <concepts::Backend B>
typename B::Handle backend_handle(B& b) {
  auto h = b.try_get_handle();
  WCQ_CHECK(h.has_value(), "backend handle slots exhausted");
  return std::move(*h);
}

// Caps on the tests' environment variables, each read through
// harness::env_count: a value that is not an integer in [1, cap] exits
// 2 naming the variable. WCQ_TEST_OPS is per producer, and an MPMC
// run's ledger takes 20 bytes a value.
inline constexpr std::uint64_t kMaxTestOps = 1'000'000;
inline constexpr std::uint64_t kMaxSoakSeconds = 86'400;
inline constexpr std::uint64_t kMaxSoakThreads = 256;
inline constexpr std::uint64_t kMaxSoakStallMs = 3'600'000;

// Operations per thread: WCQ_TEST_OPS, else `dflt`.
inline std::uint64_t env_ops(std::uint64_t dflt) {
  return harness::env_count("WCQ_TEST_OPS", dflt, kMaxTestOps);
}

// Single-thread FIFO: dequeue order must equal enqueue order.
template <concepts::Queue Q>
void test_fifo_order(const char* name) {
  // capacity 32768 > n below
  Q q(options{}.max_threads(2).order(15));
  auto h = q.get_handle();
  const std::uint64_t n = 10000;
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: enqueue %llu refused", name,
              (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v.has_value(), "%s: dequeue %llu empty", name,
              (unsigned long long)i);
    WCQ_CHECK(*v == i, "%s: got %llu want %llu (FIFO violated)", name,
              (unsigned long long)*v, (unsigned long long)i);
  }
  WCQ_CHECK(!q.try_pop(h).has_value(), "%s: queue should be drained", name);
  std::printf("  ok fifo_order        %s\n", name);
}

// Dequeue on a fresh queue and on a drained queue must report empty.
template <concepts::Queue Q>
void test_empty_dequeue(const char* name) {
  Q q(options{}.max_threads(2).order(8));
  auto h = q.get_handle();
  for (int i = 0; i < 100; ++i) {
    WCQ_CHECK(!q.try_pop(h).has_value(), "%s: fresh queue not empty", name);
  }
  WCQ_CHECK(q.try_push(42, h), "%s: enqueue refused", name);
  const auto v = q.try_pop(h);
  WCQ_CHECK(v && *v == 42, "%s: roundtrip failed", name);
  for (int i = 0; i < 100; ++i) {
    WCQ_CHECK(!q.try_pop(h).has_value(), "%s: drained queue not empty",
              name);
  }
  std::printf("  ok empty_dequeue     %s\n", name);
}

// Bounded queues must accept exactly `capacity` items then refuse;
// after draining, the refused capacity is available again.
template <concepts::Queue Q>
void test_full_ring(const char* name) {
  const std::uint64_t cap = 64;
  Q q(options{}.max_threads(2).order(6));  // capacity 64
  auto h = q.get_handle();
  for (std::uint64_t i = 0; i < cap; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: enqueue %llu of %llu refused", name,
              (unsigned long long)i, (unsigned long long)cap);
  }
  WCQ_CHECK(!q.try_push(999, h), "%s: enqueue into full ring succeeded",
            name);
  for (std::uint64_t i = 0; i < cap; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v.has_value(), "%s: drain %llu empty", name,
              (unsigned long long)i);
    WCQ_CHECK(*v == i, "%s: drain got %llu want %llu", name,
              (unsigned long long)*v, (unsigned long long)i);
  }
  // The ring must be reusable across many wraps after a full episode.
  for (std::uint64_t i = 0; i < cap * 8; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: wrap enqueue refused", name);
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == i, "%s: wrap roundtrip", name);
  }
  std::printf("  ok full_ring         %s\n", name);
}

// Stamps for the empty-answer witness, from one monotonic clock.
inline std::uint64_t stamp_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One empty pop's interval: a stamped before the call, b after it
// returned.
struct EmptyAnswer {
  std::uint64_t a;
  std::uint64_t b;
};

// A consumer's empty pops, at most kCap of them, sampled evenly over
// the run: when full it keeps every other interval and from then on
// records every other empty pop (every 4th after the next halving, and
// so on).
class EmptyLog {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 15;

  void add(std::uint64_t a, std::uint64_t b) {
    if (seen_++ % stride_ != 0) return;
    if (kept_.size() == kCap) {
      for (std::size_t i = 0; i < kCap / 2; ++i) kept_[i] = kept_[2 * i];
      kept_.resize(kCap / 2);
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    kept_.push_back({a, b});
  }
  const std::vector<EmptyAnswer>& kept() const { return kept_; }

 private:
  std::vector<EmptyAnswer> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
};

// The empty-answer pattern of Henzinger, Sezgin & Vafeiadis (CONCUR
// 2013): an empty pop [a, b] with a value whose push returned before a
// and whose pop was called after b, or never. That value was queued
// throughout the interval, so the empty answer has no linearization
// point. pushed[v] is when v's push returned, popped[v] when the pop
// that got v was called (UINT64_MAX: never). Returns how many of the
// empties are unlinearizable.
inline std::size_t unlinearizable_empties(
    const std::vector<std::uint64_t>& pushed,
    const std::vector<std::uint64_t>& popped,
    const std::vector<EmptyAnswer>& empties) {
  // Values by push return; latest[i] is the latest pop call among the
  // first i + 1 of them.
  std::vector<std::uint64_t> order(pushed.size());
  for (std::uint64_t v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](std::uint64_t x, std::uint64_t y) {
    return pushed[x] < pushed[y];
  });
  std::vector<std::uint64_t> returned(order.size());
  std::vector<std::uint64_t> latest(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    returned[i] = pushed[order[i]];
    latest[i] = std::max(popped[order[i]], i > 0 ? latest[i - 1] : 0);
  }
  std::size_t bad = 0;
  for (const EmptyAnswer& e : empties) {
    const std::size_t before =
        std::lower_bound(returned.begin(), returned.end(), e.a) -
        returned.begin();
    if (before > 0 && latest[before - 1] > e.b) ++bad;
  }
  return bad;
}

// What a test_mpmc run does beyond its shape.
template <typename Q>
struct MpmcRun {
  // The options of the queue test_mpmc builds (it sets max_threads);
  // unused when the caller owns the queue. A small ring forces
  // full/empty interleaving.
  options opt = options{}.order(10);
  // false skips the order check and the witness for queues whose
  // contract is per shard: wcq::sharded documents per-shard FIFO with
  // relaxed cross-shard order, so a producer's values spread over
  // shards may legally be observed out of sequence, and a pop that
  // finds its shards empty may miss a value queued on another.
  bool linearizable = true;
  // Push with try_push_n and pop with try_pop_n, 1-64 values per call.
  bool bursts = false;
  // Runs on its own thread beside the workers, until `done`.
  std::function<void(Q&, const std::atomic<bool>& done)> beside;
  // Runs after the workers joined and the ledger passed.
  std::function<void(Q&)> after;
};

// The calls a test_mpmc run made: try_push (try_push_n in bursts),
// refused ones included, and try_pop (try_pop_n), empty ones included.
struct MpmcCalls {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
};

// A lost value or a permanent false empty (or full) would spin
// test_mpmc's workers until ctest's timeout; instead a worker whose
// call moved nothing fails the run once no value has been consumed for
// this long. A minute without progress is a hang on any machine.
inline constexpr std::uint64_t kStallNs = 60'000'000'000;

// MPMC no-loss/no-duplication on a queue the caller owns, which must
// be empty and have a handle slot for every worker: P producers push
// tagged values, C consumers pop until everything is accounted for;
// every value must be seen exactly once and per-producer order must be
// monotone, and no empty answer may miss a value queued throughout it
// (the witness above; each consumer records up to EmptyLog::kCap of
// its empties). In bursts a try_pop_n that returns 0 is the empty
// answer, and a value's push returns when its try_push_n does.
template <concepts::Queue Q>
MpmcCalls test_mpmc(Q& q, const char* name, unsigned producers,
                    unsigned consumers, std::uint64_t per_producer,
                    const MpmcRun<Q>& run = {}) {
  const std::uint64_t total = per_producer * producers;
  std::vector<std::atomic<std::uint32_t>> seen(total);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> order_ok{true};
  std::atomic<std::uint64_t> push_calls{0};
  std::atomic<std::uint64_t> pop_calls{0};
  // Witness stamps: each value's slot is written by one thread (its
  // producer, its consumer) and read after the joins.
  std::vector<std::uint64_t> pushed(total, 0);
  std::vector<std::uint64_t> popped(total, UINT64_MAX);
  std::vector<EmptyLog> empties(consumers);

  // A worker's view of progress: the consumed count it last saw, and
  // when it first saw it.
  struct Progress {
    std::uint64_t consumed = 0;
    std::uint64_t since = stamp_ns();
  };
  const auto check_progress = [&](Progress& p, std::uint64_t now) {
    const std::uint64_t c = consumed.load(std::memory_order_relaxed);
    if (c != p.consumed) {
      p.consumed = c;
      p.since = now;
    }
    WCQ_CHECK(now - p.since < kStallNs,
              "%s: consumed %llu of %llu, none in the last 60 s", name,
              (unsigned long long)c, (unsigned long long)total);
  };

  std::atomic<bool> workers_done{false};
  std::thread beside;
  if (run.beside) beside = std::thread([&] { run.beside(q, workers_done); });

  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.get_handle();
      Progress progress;
      std::uint64_t calls = 0;
      std::uint64_t vs[kBatchChunk];
      for (std::uint64_t i = 0; i < per_producer; ++calls) {
        // Burst sizes cycle through 1..64 from a per-producer offset.
        std::uint64_t n = 1;
        if (run.bursts) {
          n = std::min<std::uint64_t>(1 + (i + p * 29) % kBatchChunk,
                                      per_producer - i);
        }
        for (std::uint64_t k = 0; k < n; ++k) vs[k] = p * per_producer + i + k;
        std::size_t ok = 0;
        if (run.bursts) {
          ok = q.try_push_n(vs, n, h);
        } else if (q.try_push(vs[0], h)) {
          ok = 1;
        }
        const std::uint64_t at = stamp_ns();
        for (std::size_t k = 0; k < ok; ++k) pushed[vs[k]] = at;
        i += ok;
        if (ok < n) {  // full: wait for consumers
          check_progress(progress, at);
          std::this_thread::yield();
        }
      }
      push_calls.fetch_add(calls, std::memory_order_relaxed);
    });
  }
  for (unsigned c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.get_handle();
      Progress progress;
      std::vector<std::uint64_t> last(producers, 0);
      std::vector<bool> any(producers, false);
      std::uint64_t vs[kBatchChunk];
      std::uint64_t call = c;
      for (; consumed.load(std::memory_order_acquire) < total; ++call) {
        const std::uint64_t a = stamp_ns();
        std::size_t got = 0;
        if (run.bursts) {
          got = q.try_pop_n(vs, 1 + call * 37 % kBatchChunk, h);
        } else if (const auto v = q.try_pop(h)) {
          vs[0] = *v;
          got = 1;
        }
        if (got == 0) {
          const std::uint64_t b = stamp_ns();
          empties[c].add(a, b);
          check_progress(progress, b);
          std::this_thread::yield();
          continue;
        }
        for (std::size_t k = 0; k < got; ++k) {
          const std::uint64_t v = vs[k];
          WCQ_CHECK(v < total, "%s: out-of-range value %llu", name,
                    (unsigned long long)v);
          seen[v].fetch_add(1, std::memory_order_relaxed);
          popped[v] = a;
          // Per-producer FIFO: this consumer must see each producer's
          // values in increasing sequence order.
          const std::uint64_t p = v / per_producer;
          const std::uint64_t seq = v % per_producer;
          if (any[p] && seq <= last[p]) {
            order_ok.store(false, std::memory_order_relaxed);
          }
          last[p] = seq;
          any[p] = true;
        }
        consumed.fetch_add(got, std::memory_order_acq_rel);
      }
      pop_calls.fetch_add(call - c, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  workers_done.store(true, std::memory_order_release);
  if (beside.joinable()) beside.join();

  WCQ_CHECK(consumed.load() == total, "%s: consumed %llu of %llu", name,
            (unsigned long long)consumed.load(), (unsigned long long)total);
  for (std::uint64_t v = 0; v < total; ++v) {
    const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
    WCQ_CHECK(count == 1, "%s: value %llu seen %u times (lost/duplicated)",
              name, (unsigned long long)v, count);
  }
  WCQ_CHECK(!run.linearizable || order_ok.load(),
            "%s: per-producer FIFO order violated", name);
  std::vector<EmptyAnswer> answers;
  for (const EmptyLog& log : empties) {
    answers.insert(answers.end(), log.kept().begin(), log.kept().end());
  }
  const std::size_t bad =
      run.linearizable ? unlinearizable_empties(pushed, popped, answers) : 0;
  WCQ_CHECK(bad == 0,
            "%s: %zu of %zu empty answers missed a value queued throughout",
            name, bad, answers.size());
  if (run.after) run.after(q);
  std::printf("  ok mpmc %ux%u%s %s (%zu empty answers witnessed)\n",
              producers, consumers, run.bursts ? " burst " : "       ", name,
              run.linearizable ? answers.size() : 0);
  return {push_calls.load(), pop_calls.load()};
}

// The same on a queue built from run.opt, with a handle slot for every
// worker and two to spare.
template <concepts::Queue Q>
void test_mpmc(const char* name, unsigned producers, unsigned consumers,
               std::uint64_t per_producer, const MpmcRun<Q>& run = {}) {
  Q q(options{run.opt}.max_threads(producers + consumers + 2));
  test_mpmc(q, name, producers, consumers, per_producer, run);
}

// ---- queue selection shared by the test mains ----

inline bool selected(int argc, char** argv, const char* queue) {
  if (argc < 2) return true;  // no filter: run all
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], queue) == 0) return true;
  }
  return false;
}

// Invokes fn<Q>(tag) for each queue selected on the command line:
// wcq, wcq-portable, scq, ncq, ccq, lscq, faa, msq, lcrq, sharded-wcq,
// sharded-lcrq.
template <typename Fn>
int for_selected_queues(int argc, char** argv, Fn fn) {
  bool matched = false;
  if (selected(argc, argv, "wcq")) {
    fn.template operator()<harness::WcqAdapter>("wcq");
    matched = true;
  }
  if (selected(argc, argv, "wcq-portable")) {
    fn.template operator()<harness::WcqPortableAdapter>("wcq-portable");
    matched = true;
  }
  if (selected(argc, argv, "scq")) {
    fn.template operator()<harness::ScqAdapter>("scq");
    matched = true;
  }
  if (selected(argc, argv, "ncq")) {
    fn.template operator()<harness::NcqAdapter>("ncq");
    matched = true;
  }
  if (selected(argc, argv, "ccq")) {
    fn.template operator()<harness::CcqAdapter>("ccq");
    matched = true;
  }
  if (selected(argc, argv, "lscq")) {
    fn.template operator()<harness::LscqAdapter>("lscq");
    matched = true;
  }
  if (selected(argc, argv, "faa")) {
    fn.template operator()<harness::FaaAdapter>("faa");
    matched = true;
  }
  if (selected(argc, argv, "msq")) {
    fn.template operator()<harness::MsqAdapter>("msq");
    matched = true;
  }
  if (selected(argc, argv, "lcrq")) {
    fn.template operator()<harness::LcrqAdapter>("lcrq");
    matched = true;
  }
  if (selected(argc, argv, "sharded-wcq")) {
    fn.template operator()<harness::ShardedWcqAdapter>("sharded-wcq");
    matched = true;
  }
  if (selected(argc, argv, "sharded-lcrq")) {
    fn.template operator()<harness::ShardedLcrqAdapter>("sharded-lcrq");
    matched = true;
  }
  if (!matched) {
    std::fprintf(stderr,
                 "unknown queue filter; expected one of: wcq wcq-portable "
                 "scq ncq ccq lscq faa msq lcrq sharded-wcq sharded-lcrq\n");
    return 2;
  }
  return 0;
}

}  // namespace wcq::test
