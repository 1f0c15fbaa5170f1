// wcq_suite — one workload of the wCQ benchmark suite per invocation.
//
//   wcq_suite --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// The suite measures the library from outside: it includes only
// include/wcq/*.hpp, builds every queue from wcq::options through the
// public facades, and reads layer counters only where a facade exposes
// them. Per-instance lines go to stdout; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones (ladder, counters, spans), and FILE receives the spans
// as Chrome trace-event JSON.
//
// bench/suite/README.md defines every workload and metric.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "wcq/ccq.hpp"
#include "wcq/lscq.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq.hpp"
#include "wcq/sharded.hpp"

namespace {

using suite::Call;
using suite::Histogram;
using suite::kSamplePeriod;
using suite::now_ns;
using suite::Probe;
using suite::SpanLog;
using suite::Untimed;

#define INLINE __attribute__((always_inline))

// ---- run shape ------------------------------------------------------

// Every workload runs this many fresh queue instances and reports the
// median: instance-to-instance spread (a few percent, more for tail
// latency) is wider than the spread inside one instance.
constexpr unsigned kInstances = 5;
// Warm-up before each timed window, as a share of that window.
constexpr double kWarmShare = 1.0 / 6;
// Set-up is timed this many times before each instance (after one
// untimed round each): 45 samples per run.
constexpr unsigned kSetupReps = 9;
// Traced runs measure every ladder rung this many times, alternating
// the order, and average.
constexpr unsigned kLadderRounds = 2;
constexpr unsigned kBatch = 64;
constexpr double kMsgRatePerProducer = 100000.0;
constexpr unsigned kMaxProducers = 4;

// ---- values ---------------------------------------------------------

// A value's identity ("tag"): producer id above bit 48, a 1-based
// per-producer sequence number below.
constexpr unsigned kSeqBits = 48;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
constexpr std::uint64_t kCorrupt = ~std::uint64_t{0};

std::uint64_t make_tag(unsigned pid, std::uint64_t seq) {
  return std::uint64_t{pid} << kSeqBits | seq;
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return mix64(s += 0x9e3779b97f4a7c15ull); }
  // Uniform in (0, 1].
  double unit() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
};

// 32-byte payload: too large for a slot, so wcq::queue boxes it.
struct Msg32 {
  std::uint64_t w[4];
};
static_assert(!wcq::fits_in_slot_v<Msg32>);

// Payloads derive from the tag and a seed-derived key, so a consumer
// recomputes them and detects corruption.
template <typename V>
V make_value(std::uint64_t tag, std::uint64_t key);

template <>
std::uint64_t make_value<std::uint64_t>(std::uint64_t tag, std::uint64_t key) {
  return tag ^ key;
}

template <>
Msg32 make_value<Msg32>(std::uint64_t tag, std::uint64_t key) {
  Msg32 m;
  m.w[0] = tag ^ key;
  m.w[1] = mix64(m.w[0]);
  m.w[2] = mix64(m.w[1]);
  m.w[3] = m.w[0] ^ m.w[1] ^ m.w[2];
  return m;
}

std::uint64_t read_tag(std::uint64_t v, std::uint64_t key) { return v ^ key; }

std::uint64_t read_tag(const Msg32& m, std::uint64_t key) {
  if (m.w[1] != mix64(m.w[0]) || m.w[2] != mix64(m.w[1]) ||
      m.w[3] != (m.w[0] ^ m.w[1] ^ m.w[2])) {
    return kCorrupt;
  }
  return m.w[0] ^ key;
}

// What one consumer saw of each producer: FIFO order per producer,
// plus count/sum/xor of sequence numbers for the end-of-run check that
// no value was lost or duplicated.
struct Ledger {
  std::uint64_t last[kMaxProducers] = {};
  std::uint64_t count[kMaxProducers] = {};
  std::uint64_t sum[kMaxProducers] = {};
  std::uint64_t xr[kMaxProducers] = {};
  std::uint64_t fifo_violations = 0;
  std::uint64_t corrupt = 0;

  void take(std::uint64_t tag, unsigned producers) {
    const std::uint64_t pid = tag >> kSeqBits;
    const std::uint64_t seq = tag & kSeqMask;
    if (pid >= producers || seq == 0) {
      ++corrupt;
      return;
    }
    if (seq <= last[pid]) ++fifo_violations;
    last[pid] = seq;
    ++count[pid];
    sum[pid] += seq;
    xr[pid] ^= seq;
  }
};

std::uint64_t xor_upto(std::uint64_t n) {
  switch (n & 3) {
    case 0: return n;
    case 1: return 1;
    case 2: return n + 1;
    default: return 0;
  }
}

// Failures over all consumers' ledgers, given how many values each
// producer pushed (sequence numbers 1..pushed[p]).
std::uint64_t ledger_failures(const std::vector<const Ledger*>& ledgers,
                              const std::vector<std::uint64_t>& pushed) {
  std::uint64_t failed = 0;
  for (const Ledger* l : ledgers) failed += l->fifo_violations + l->corrupt;
  for (std::size_t p = 0; p < pushed.size(); ++p) {
    std::uint64_t c = 0, s = 0, x = 0;
    for (const Ledger* l : ledgers) {
      c += l->count[p];
      s += l->sum[p];
      x ^= l->xr[p];
    }
    const std::uint64_t n = pushed[p];
    if (c != n) {
      failed += c > n ? c - n : n - c;
    } else if (s != n * (n + 1) / 2 || x != xor_upto(n)) {
      ++failed;
    }
  }
  return failed;
}

// ---- threads --------------------------------------------------------

std::vector<int> g_cpus;  // the CPUs this process may run on
std::uint64_t g_origin = 0;  // trace timestamps count from here

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// The main thread owns the first CPU (it sleeps while workers run);
// workers take the next ones.
void pin_worker(unsigned tid) {
  pin_to(g_cpus[(tid + 1) % g_cpus.size()]);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      static_cast<std::int64_t>(s * 1e9)));
}

enum : int { kWait, kWarm, kTimed, kStop };

struct alignas(128) Phase {
  std::atomic<int> v{kWait};
};

// ---- workloads ------------------------------------------------------

enum class Kind { pairwise, mixed, empty_poll, openloop, batch };

struct Spec {
  const char* name;
  Kind kind;
  unsigned threads;
};

constexpr Spec kSpecs[] = {
    {"pairwise_1t", Kind::pairwise, 1},
    {"mixed_4t", Kind::mixed, 4},
    {"empty_poll_4t", Kind::empty_poll, 4},
    {"msg_openloop", Kind::openloop, 4},
    {"batch_boxed_4t", Kind::batch, 4},
};

unsigned producers_of(const Spec& s) {
  switch (s.kind) {
    case Kind::empty_poll: return 0;
    case Kind::openloop: return 2;
    default: return s.threads;
  }
}

struct Timing {
  double warm_s;
  double timed_s;
  std::uint64_t seed;
  std::uint64_t key;
};

// Queue operation outcomes counted at the call site. Batch calls count
// elements (a pop_n short of its request counts the rest as empty).
struct Counters {
  std::uint64_t push_ok = 0;
  std::uint64_t push_full = 0;
  std::uint64_t pop_ok = 0;
  std::uint64_t pop_empty = 0;

  std::uint64_t ops() const { return push_ok + push_full + pop_ok + pop_empty; }

  Counters operator-(const Counters& o) const {
    return {push_ok - o.push_ok, push_full - o.push_full, pop_ok - o.pop_ok,
            pop_empty - o.pop_empty};
  }
  Counters& operator+=(const Counters& o) {
    push_ok += o.push_ok;
    push_full += o.push_full;
    pop_ok += o.pop_ok;
    pop_empty += o.pop_empty;
    return *this;
  }
};

// Counters the layers expose through the public facades.
struct LayerCounts {
  std::uint64_t fast = 0;
  std::uint64_t slow = 0;
  std::uint64_t helps = 0;
  std::uint64_t allocs = 0;
  std::uint64_t retires = 0;
  std::uint64_t scans = 0;

  LayerCounts operator-(const LayerCounts& o) const {
    return {fast - o.fast,     slow - o.slow,       helps - o.helps,
            allocs - o.allocs, retires - o.retires, scans - o.scans};
  }
};

template <typename Q>
LayerCounts layer_counts(const Q& q) {
  LayerCounts c;
  c.allocs = wcq::mem::stats().total_allocs;
  auto add = [&c](const auto& s) {
    c.fast = s.fast_enqueues + s.fast_dequeues;
    c.slow = s.slow_enqueues + s.slow_dequeues;
    c.helps = s.helps;
  };
  if constexpr (requires { q.stats().slow_enqueues; }) {
    add(q.stats());
  } else if constexpr (requires { q.backend_stats().slow_enqueues; }) {
    add(q.backend_stats());
  }
  if constexpr (requires { q.smr_stats().retire_calls; }) {
    const auto s = q.smr_stats();
    c.retires = s.retire_calls;
    c.scans = s.scans;
  }
  return c;
}

struct WorkerOut {
  Counters total;
  Counters timed;
  double secs = 0;
  std::uint64_t pushed = 0;  // this thread's producer sequence
  std::uint64_t failed = 0;  // failures seen at the call site
  Ledger ledger;
  Histogram push_ns;
  Histogram pop_ns;
  Histogram self_ns;
};

struct Instance {
  double mops = 0;
  Histogram push_ns;
  Histogram pop_ns;
  Histogram self_ns;
  Histogram lat_ns;  // message latency (open loop) or sampled call time
  Counters timed;
  LayerCounts layer;
  std::uint64_t mem_peak = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Open loop only.
  double gen_late_mean_ns = 0;
  std::uint64_t backlog_max = 0;
};

// One closed-loop worker. Iterations run in rounds of kSamplePeriod: the
// first kSamplePeriod-1 through the bare call site, the last through the
// probe, after which the worker polls the phase (warm-up, timed window,
// stop). Loop bodies take the call site as `t`.
template <typename Q, bool Traced>
void closed_worker(const Spec& spec, Q& q, typename Q::handle& h,
                   unsigned tid, const Timing& tm, Phase& phase,
                   WorkerOut& out, SpanLog* log) {
  using V = typename Q::value_type;
  pin_worker(tid);
  Probe<Traced> probe(log);
  Untimed untimed;
  WorkerOut w;
  Rng rng{mix64(tm.seed ^ (tid + 1))};
  const unsigned producers = producers_of(spec);
  const std::uint64_t key = tm.key;
  std::vector<V> in(kBatch), got_buf(kBatch);

  // The harness's helpers and loop bodies are forced inline, so the
  // code around each queue call stays a flat loop however the rest of
  // this file grows (an out-of-line helper halved empty_poll_4t).
  auto take = [&](auto& t, const V& v) INLINE {
    const std::uint64_t tag = read_tag(v, key);
    t.tag_last(tag);
    w.ledger.take(tag, producers);
    return tag;
  };
  auto pop_one = [&](auto& t) INLINE {
    auto r = t.call(Call::pop, "try_pop", 0, [&] { return q.try_pop(h); });
    if (!r) {
      ++w.total.pop_empty;
      return kCorrupt;
    }
    ++w.total.pop_ok;
    return take(t, *r);
  };
  auto push = [&](auto& t, std::uint64_t tag, const V& v) INLINE {
    if (t.call(Call::push, "try_push", tag, [&] { return q.try_push(v, h); })) {
      ++w.total.push_ok;
      ++w.pushed;
      return true;
    }
    ++w.total.push_full;
    return false;
  };

  while (phase.v.load(std::memory_order_acquire) == kWait) cpu_relax();
  int seen = kWarm;
  std::uint64_t t_start = 0;
  Counters at_start;
  auto run = [&](auto&& body) {
    for (;;) {
      for (unsigned i = 1; i < kSamplePeriod; ++i) body(untimed);
      const int p = phase.v.load(std::memory_order_relaxed);
      if (p != seen) [[unlikely]] {
        const std::uint64_t t = now_ns();
        if (p == kTimed) {
          at_start = w.total;
          probe.clear();
          t_start = t;
          seen = p;
        } else {
          if (seen == kTimed) {
            w.timed = w.total - at_start;
            w.secs = static_cast<double>(t - t_start) * 1e-9;
          }
          return;
        }
      }
      probe.begin();
      body(probe);
      probe.end();
    }
  };

  switch (spec.kind) {
    case Kind::pairwise:
      // Push then pop on an otherwise idle queue: the pop must return
      // exactly the value just pushed, and the push can never be
      // refused.
      run([&](auto& t) INLINE {
        const std::uint64_t tag = make_tag(tid, w.pushed + 1);
        if (!push(t, tag, make_value<V>(tag, key))) {
          ++w.failed;
          return;
        }
        if (pop_one(t) != tag) ++w.failed;
      });
      break;
    case Kind::mixed:
      // Seeded 50/50 push/pop; a push refused as full pops one value
      // and retries.
      run([&](auto& t) INLINE {
        if (rng.next() & 1) {
          const std::uint64_t tag = make_tag(tid, w.pushed + 1);
          const V v = make_value<V>(tag, key);
          while (!push(t, tag, v)) pop_one(t);
        } else {
          pop_one(t);
        }
      });
      break;
    case Kind::empty_poll:
      // Nothing is ever pushed: every value a pop returns is a failure
      // (the ledger counts it as corrupt, there being no producers).
      run([&](auto& t) INLINE { pop_one(t); });
      break;
    case Kind::batch:
      // try_push_n of kBatch values, then try_pop_n until as many came
      // back. Occupancy stays <= threads * kBatch, so a refused push is
      // a failure.
      run([&](auto& t) INLINE {
        for (unsigned i = 0; i < kBatch; ++i) {
          in[i] = make_value<V>(make_tag(tid, w.pushed + 1 + i), key);
        }
        const std::size_t n =
            t.call(Call::push, "try_push_n", make_tag(tid, w.pushed + 1),
                   [&] { return q.try_push_n(in.data(), kBatch, h); });
        w.total.push_ok += n;
        w.total.push_full += kBatch - n;
        w.failed += kBatch - n;
        w.pushed += n;
        std::size_t got = 0;
        for (unsigned empty_tries = 0; got < n && empty_tries < (1u << 20);) {
          const std::size_t k =
              t.call(Call::pop, "try_pop_n", 0, [&] {
                return q.try_pop_n(got_buf.data(), n - got, h);
              });
          w.total.pop_ok += k;
          w.total.pop_empty += n - got - k;
          if (k == 0) ++empty_tries;
          for (std::size_t i = 0; i < k; ++i) take(t, got_buf[i]);
          got += k;
        }
      });
      break;
    case Kind::openloop:
      break;
  }
  w.push_ns = probe.push_ns;
  w.pop_ns = probe.pop_ns;
  w.self_ns = probe.self_ns;
  out = std::move(w);
}

// One fresh queue instance of a closed workload: warm-up, timed
// window, stop, then drain and check every value.
template <typename Q, bool Traced>
Instance closed_instance(const Spec& spec, const wcq::options& opt,
                         const Timing& tm, std::vector<SpanLog>* logs) {
  wcq::mem::reset();
  Instance res;
  std::vector<WorkerOut> outs(spec.threads);
  Ledger drained;
  {
    Q q(opt);
    std::vector<typename Q::handle> handles;
    for (unsigned t = 0; t < spec.threads; ++t) {
      handles.push_back(q.get_handle());
    }
    Phase phase;
    LayerCounts before, after;
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 0; t < spec.threads; ++t) {
        threads.emplace_back([&, t] {
          closed_worker<Q, Traced>(spec, q, handles[t], t, tm, phase,
                                   outs[t], logs ? &(*logs)[t + 1] : nullptr);
        });
      }
      phase.v.store(kWarm, std::memory_order_release);
      sleep_s(tm.warm_s);
      before = layer_counts(q);
      phase.v.store(kTimed, std::memory_order_release);
      sleep_s(tm.timed_s);
      phase.v.store(kStop, std::memory_order_release);
      after = layer_counts(q);
    }
    res.layer = after - before;
    auto h = q.get_handle();
    while (auto v = q.try_pop(h)) {
      ++res.attempted;
      drained.take(read_tag(*v, tm.key), producers_of(spec));
    }
    res.mem_peak = wcq::mem::stats().peak_bytes;
  }
  std::vector<const Ledger*> ledgers{&drained};
  std::vector<std::uint64_t> pushed;
  for (unsigned t = 0; t < spec.threads; ++t) {
    const WorkerOut& w = outs[t];
    if (w.secs > 0) {
      res.mops += static_cast<double>(w.timed.ops()) / w.secs / 1e6;
    }
    res.timed += w.timed;
    res.attempted += w.total.ops();
    res.failed += w.failed;
    res.push_ns.merge(w.push_ns);
    res.pop_ns.merge(w.pop_ns);
    res.self_ns.merge(w.self_ns);
    ledgers.push_back(&w.ledger);
    if (t < producers_of(spec)) pushed.push_back(w.pushed);
  }
  res.failed += ledger_failures(ledgers, pushed);
  res.lat_ns.merge(res.push_ns);
  res.lat_ns.merge(res.pop_ns);
  return res;
}

// ---- open loop ------------------------------------------------------

// Two producers send on a seeded Poisson schedule; two consumers poll.
// A message's latency runs from its *scheduled* send time to its pop,
// so a stalled producer is charged for every message it delays. The
// first warm_s of the schedule is sent and checked but not timed.
template <bool Traced>
Instance openloop_instance(const wcq::options& opt, const Timing& tm,
                           std::vector<SpanLog>* logs) {
  constexpr unsigned kProducers = 2, kConsumers = 2;
  using Q = wcq::queue<std::uint64_t>;
  wcq::mem::reset();
  Instance res;

  // Schedules (ns offsets from the start) and per-message state.
  const double span_ns = (tm.warm_s + tm.timed_s) * 1e9;
  const auto warm_ns = static_cast<std::uint64_t>(tm.warm_s * 1e9);
  std::vector<std::vector<std::uint64_t>> sched(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    Rng rng{mix64(tm.seed ^ (0x5eedull + p))};
    double t = 0;
    for (;;) {
      t += -std::log(rng.unit()) / kMsgRatePerProducer * 1e9;
      if (t >= span_ns) break;
      sched[p].push_back(static_cast<std::uint64_t>(t));
    }
  }
  // Received bitmaps (exact loss/duplicate check). For each sampled
  // message the producer notes its try_push time and the consumer the
  // latency less its try_pop time; the msg span's self time is formed
  // from the two after the threads join (the push time is only known
  // once the message is already visible).
  std::vector<std::vector<std::atomic<std::uint64_t>>> seen(kProducers);
  std::vector<std::vector<std::uint64_t>> push_dur(kProducers);
  std::vector<std::vector<std::uint64_t>> outside_pop(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    seen[p] =
        std::vector<std::atomic<std::uint64_t>>(sched[p].size() / 64 + 1);
    if (Traced) {
      push_dur[p].assign(sched[p].size() / kSamplePeriod + 1, 0);
      outside_pop[p].assign(push_dur[p].size(), 0);
    }
  }

  struct alignas(128) Count {
    std::atomic<std::uint64_t> v{0};
  };
  Count sent[kProducers], received[kConsumers], producers_done;
  // Per-thread results. Open-loop counters cover the whole schedule.
  struct alignas(128) Side {
    Counters c;
    Ledger ledger;
    Histogram lat_ns, push_ns, pop_ns;
    std::uint64_t late_ns = 0, late_n = 0, backlog_max = 0, failed = 0;
    std::uint64_t window_msgs = 0, last_pop = 0;
  };
  std::vector<Side> sides(kProducers + kConsumers);

  Q q(opt);
  std::vector<Q::handle> handles;
  for (unsigned t = 0; t < kProducers + kConsumers; ++t) {
    handles.push_back(q.get_handle());
  }
  std::uint64_t t0 = 0;
  std::atomic<bool> go{false};
  LayerCounts before, after;
  {
    std::vector<std::jthread> threads;
    for (unsigned p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        pin_worker(p);
        SpanLog* log = logs ? &(*logs)[p + 1] : nullptr;
        Side& s = sides[p];
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        const std::vector<std::uint64_t>& due_at = sched[p];
        for (std::uint64_t i = 0; i < due_at.size(); ++i) {
          const std::uint64_t due = t0 + due_at[i];
          std::uint64_t now = now_ns();
          while (now < due) {
            cpu_relax();
            now = now_ns();
          }
          if (due_at[i] >= warm_ns) {
            s.late_ns += now - due;
            ++s.late_n;
          }
          const std::uint64_t seq = i + 1;
          const std::uint64_t tag = make_tag(p, seq);
          const bool sampled = Traced && seq % kSamplePeriod == 0;
          for (;;) {
            if (q.try_push(tag ^ tm.key, handles[p])) break;
            ++s.c.push_full;  // retried: the message only gets later
          }
          ++s.c.push_ok;
          if (sampled) {
            const std::uint64_t end = now_ns();
            push_dur[p][seq / kSamplePeriod] = end - now;
            s.push_ns.record(end - now);
            log->add({"try_push", now, end, log->next_id(),
                      std::uint64_t{1} << 63 | tag, tag, false});
          }
          sent[p].v.store(seq, std::memory_order_release);
        }
        producers_done.v.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&, c] {
        const unsigned tid = kProducers + c;
        pin_worker(tid);
        SpanLog* log = logs ? &(*logs)[tid + 1] : nullptr;
        Side& s = sides[tid];
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        std::uint64_t mine = 0, idle = 0;
        for (;;) {
          const std::uint64_t before_call = Traced ? now_ns() : 0;
          const auto r = q.try_pop(handles[tid]);
          if (!r) {
            ++s.c.pop_empty;
            if ((++idle & 1023) != 0) continue;
            // All sent and all received ends the run; a message still
            // missing 5 s after the schedule is lost.
            if (producers_done.v.load(std::memory_order_acquire) ==
                kProducers) {
              std::uint64_t total_sent = 0, total_received = 0;
              for (auto& x : sent) total_sent += x.v.load();
              for (auto& x : received) total_received += x.v.load();
              if (total_received == total_sent ||
                  now_ns() > t0 + static_cast<std::uint64_t>(span_ns) +
                                 5'000'000'000ull) {
                break;
              }
            }
            continue;
          }
          const std::uint64_t now = now_ns();
          ++s.c.pop_ok;
          received[c].v.store(++mine, std::memory_order_release);
          const std::uint64_t tag = read_tag(*r, tm.key);
          const std::uint64_t pid = tag >> kSeqBits, seq = tag & kSeqMask;
          if (pid >= kProducers || seq == 0 || seq > sched[pid].size()) {
            ++s.failed;
            continue;
          }
          const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
          if (seen[pid][seq / 64].fetch_or(bit, std::memory_order_relaxed) &
              bit) {
            ++s.failed;  // duplicate
          }
          s.ledger.take(tag, kProducers);  // FIFO per producer
          const std::uint64_t due = t0 + sched[pid][seq - 1];
          if (sched[pid][seq - 1] >= warm_ns) {
            s.lat_ns.record(now - due);
            ++s.window_msgs;
            s.last_pop = now;
          }
          if ((mine & 63) == 0) {
            std::uint64_t backlog = 0;
            for (auto& x : sent) {
              backlog += x.v.load(std::memory_order_relaxed);
            }
            for (auto& x : received) {
              backlog -=
                  std::min(backlog, x.v.load(std::memory_order_relaxed));
            }
            s.backlog_max = std::max(s.backlog_max, backlog);
          }
          if (Traced && seq % kSamplePeriod == 0) {
            s.pop_ns.record(now - before_call);
            outside_pop[pid][seq / kSamplePeriod] =
                now - due - std::min(now - due, now - before_call);
            const std::uint64_t msg_id = std::uint64_t{1} << 63 | tag;
            log->add({"try_pop", before_call, now, log->next_id(), msg_id,
                      tag, false});
            log->add({"msg", due, now, msg_id, 0, tag, true});
          }
        }
      });
    }
    t0 = now_ns() + 1'000'000;  // 1 ms for every thread to reach its spin
    go.store(true, std::memory_order_release);
    sleep_s(tm.warm_s + 0.001);
    before = layer_counts(q);
    sleep_s(tm.timed_s);
    while (producers_done.v.load(std::memory_order_acquire) != kProducers) {
      sleep_s(0.001);
    }
    after = layer_counts(q);
  }
  res.layer = after - before;
  res.mem_peak = wcq::mem::stats().peak_bytes;

  std::uint64_t late = 0, late_n = 0, window_msgs = 0, last_pop = 0;
  for (Side& s : sides) {
    res.timed += s.c;
    res.attempted += s.c.ops();
    res.failed += s.failed + s.ledger.fifo_violations + s.ledger.corrupt;
    res.lat_ns.merge(s.lat_ns);
    res.push_ns.merge(s.push_ns);
    res.pop_ns.merge(s.pop_ns);
    late += s.late_ns;
    late_n += s.late_n;
    window_msgs += s.window_msgs;
    last_pop = std::max(last_pop, s.last_pop);
    res.backlog_max = std::max(res.backlog_max, s.backlog_max);
  }
  for (unsigned p = 0; p < kProducers; ++p) {
    for (std::size_t k = 1; k < push_dur[p].size(); ++k) {
      const std::uint64_t rest = outside_pop[p][k];
      res.self_ns.record(rest - std::min(rest, push_dur[p][k]));
    }
  }
  // Every scheduled message must have arrived exactly once.
  for (unsigned p = 0; p < kProducers; ++p) {
    for (std::uint64_t seq = 1; seq <= sched[p].size(); ++seq) {
      if (!(seen[p][seq / 64].load() >> (seq % 64) & 1)) ++res.failed;
    }
  }
  res.gen_late_mean_ns = late_n ? static_cast<double>(late) / late_n : 0.0;
  // Achieved rate over the timed window, by the wall clock.
  if (last_pop > t0 + warm_ns) {
    res.mops = static_cast<double>(window_msgs) /
               (static_cast<double>(last_pop - t0 - warm_ns) * 1e-9) / 1e6;
  }
  return res;
}

// ---- set-up ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Set-up samples: constructing the queue plus registering every handle
// the workload uses (seconds), and its two parts.
struct Setup {
  std::vector<double> total_s, ctor_ms, register_us;
};

// One untimed round (the allocator settles), then `reps` timed rounds,
// on the pinned main thread. Runs spread these calls over the run, so
// a transient at process start cannot move the median.
template <typename Q, bool Traced>
void measure_setup(const wcq::options& opt, unsigned handles, unsigned reps,
                   Setup& out, SpanLog* log) {
  std::vector<std::uint64_t> ts(handles + 1);
  for (unsigned r = 0; r <= reps; ++r) {
    std::optional<Q> q;
    std::vector<typename Q::handle> hs;
    hs.reserve(handles);
    const std::uint64_t t0 = now_ns();
    q.emplace(opt);
    ts[0] = now_ns();
    for (unsigned i = 0; i < handles; ++i) {
      hs.push_back(q->get_handle());
      ts[i + 1] = now_ns();
    }
    if (r == 0) continue;
    out.total_s.push_back(static_cast<double>(ts[handles] - t0) * 1e-9);
    out.ctor_ms.push_back(static_cast<double>(ts[0] - t0) * 1e-6);
    out.register_us.push_back(static_cast<double>(ts[handles] - ts[0]) *
                              1e-3 / handles);
    if constexpr (Traced) {
      const std::uint64_t id = log->next_id();
      log->add({"setup", t0, ts[handles], id, 0, r, false});
      log->add({"ctor", t0, ts[0], log->next_id(), id, r, false});
      for (unsigned i = 0; i < handles; ++i) {
        log->add(
            {"get_handle", ts[i], ts[i + 1], log->next_id(), id, i, false});
      }
    }
  }
}

// ---- result output --------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
  void count(const Instance& in) {
    attempted += in.attempted;
    failed += in.failed;
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_instance(const char* workload, const char* what, unsigned i,
                    unsigned n, const Instance& in) {
  std::printf(
      "[%s] %s %u/%u: %.4f Mops/s, lat p50 %.4f us, p90 %.4f us, "
      "p99 %.4f us "
      "(%llu samples), mem peak %.3f MB, failed %llu\n",
      workload, what, i + 1, n, in.mops, in.lat_ns.quantile(0.5) * 1e-3,
      in.lat_ns.tail_quantile(0.90) * 1e-3,
      in.lat_ns.tail_quantile(0.99) * 1e-3,
      static_cast<unsigned long long>(in.lat_ns.count()),
      static_cast<double>(in.mem_peak) / 1e6,
      static_cast<unsigned long long>(in.failed));
  std::fflush(stdout);
}

// ---- the system under test and the ladder ---------------------------

using U64Queue = wcq::queue<std::uint64_t>;
using BatchQueue = wcq::sharded<Msg32>;

wcq::options sharded_options() {
  return wcq::options{}.shards(4).shard_policy(wcq::shard_policy::sticky);
}

// Each rung adds one module to the one before it; differences between
// rungs give that module's cost per op per thread. Rungs marked
// batch_only add a layer only batch_boxed_4t's queue has.
enum RungId { kScq, kCcq, kWcqNoHelp, kWcq, kWcqBox, kSharded, kLscq };

struct Rung {
  const char* name;
  bool batch_only;
  Instance (*run)(const Spec&, const Timing&);
};

template <typename Q>
Instance plain(const Spec& s, const wcq::options& o, const Timing& t) {
  return closed_instance<Q, false>(s, o, t, nullptr);
}

// Indexed by RungId.
const Rung kRungs[] = {
    {"scq", false,
     [](const Spec& s, const Timing& t) {
       return plain<wcq::queue<std::uint64_t, wcq::ScqQueue>>(s, {}, t);
     }},
    {"ccq", false,
     [](const Spec& s, const Timing& t) {
       return plain<wcq::queue<std::uint64_t, wcq::CcqQueue>>(s, {}, t);
     }},
    {"wcq_nohelp", false,
     [](const Spec& s, const Timing& t) {
       return plain<U64Queue>(s, wcq::options{}.help_delay(UINT_MAX), t);
     }},
    {"wcq", false,
     [](const Spec& s, const Timing& t) { return plain<U64Queue>(s, {}, t); }},
    {"wcq_box", true,
     [](const Spec& s, const Timing& t) {
       return plain<wcq::queue<Msg32>>(s, {}, t);
     }},
    {"sharded", true,
     [](const Spec& s, const Timing& t) {
       return plain<wcq::sharded<std::uint64_t>>(s, sharded_options(), t);
     }},
    {"lscq", false,
     [](const Spec& s, const Timing& t) {
       return plain<wcq::queue<std::uint64_t, wcq::LscqQueue>>(s, {}, t);
     }},
};
constexpr std::size_t kRungCount = std::size(kRungs);

// ns[i]: rung i's cost per op per thread (all zero when the workload
// runs no ladder); lscq: the LSCQ rung's instance, for its SMR counts.
void add_ladder_metrics(Report& r, const Spec& spec,
                        const std::vector<double>& ns, const Instance& lscq) {
  const double batch = spec.kind == Kind::batch ? 1.0 : 0.0;
  r.add("ring.ns_per_op", ns[kScq], "ns");
  r.add("entry.cas2_ns_per_op", ns[kCcq] - ns[kScq], "ns");
  r.add("wcq.fast_ns_per_op", ns[kWcqNoHelp] - ns[kCcq], "ns");
  r.add("wcq.help_ns_per_op", ns[kWcq] - ns[kWcqNoHelp], "ns");
  r.add("queue.box_ns_per_op", batch * (ns[kWcqBox] - ns[kWcq]), "ns");
  r.add("sharded.ns_per_op", batch * (ns[kSharded] - ns[kWcq]), "ns");
  r.add("smr.lscq_ns_per_op", ns[kLscq] - ns[kScq], "ns");
  const double ops = static_cast<double>(lscq.timed.ops());
  r.add("smr.retires_per_kop", ratio(lscq.layer.retires * 1000.0, ops),
        "count/kop");
  r.add("smr.scans_per_kop", ratio(lscq.layer.scans * 1000.0, ops),
        "count/kop");
}

void add_counter_metrics(Report& r, const Instance& in, bool sharded) {
  const Counters& c = in.timed;
  const double ops = static_cast<double>(c.ops());
  const LayerCounts& l = in.layer;
  r.add("wcq.slow_op_ratio", ratio(l.slow, l.fast + l.slow), "ratio");
  r.add("wcq.helps_per_kop", ratio(l.helps * 1000.0, ops), "count/kop");
  r.add("mem.allocs_per_op", ratio(l.allocs, ops), "count");
  r.add("sharded.backend_attempts_per_op",
        sharded ? ratio(l.fast + l.slow, ops) : 0.0, "count");
  r.add("queue.pop_empty_ratio", ratio(c.pop_empty, c.pop_ok + c.pop_empty),
        "ratio");
  r.add("queue.push_full_ratio", ratio(c.push_full, c.push_ok + c.push_full),
        "ratio");
}

void add_setup_metrics(Report& r, const Setup& s) {
  r.add("handle.register_us", median(s.register_us), "us");
  r.add("setup.ctor_ms", median(s.ctor_ms), "ms");
}

void add_span_metrics(Report& r, const Instance& traced, double overhead_pct) {
  r.add("span.try_push.p50_ns", traced.push_ns.quantile(0.5), "ns");
  r.add("span.try_push.p99_ns", traced.push_ns.tail_quantile(0.99), "ns");
  r.add("span.try_pop.p50_ns", traced.pop_ns.quantile(0.5), "ns");
  r.add("span.try_pop.p99_ns", traced.pop_ns.tail_quantile(0.99), "ns");
  r.add("span.harness_self_ns", traced.self_ns.quantile(0.5), "ns");
  r.add("trace.overhead_pct", overhead_pct, "%");
}

// `in` is the open-loop instance; an empty Instance (all zero) for
// closed workloads.
void add_openloop_metrics(Report& r, const Instance& in) {
  const Histogram& h = in.lat_ns;
  r.add("openloop.polls_per_msg",
        ratio(in.timed.pop_ok + in.timed.pop_empty, in.timed.pop_ok),
        "count");
  r.add("openloop.lat_p99_us", h.tail_quantile(0.99) * 1e-3, "us");
  r.add("openloop.lat_p999_us", h.tail_quantile(0.999) * 1e-3, "us");
  r.add("openloop.lat_p99999_us", h.tail_quantile(0.99999) * 1e-3, "us");
  r.add("openloop.lat_max_us", h.max() * 1e-3, "us");
  r.add("openloop.gen_late_mean_us", in.gen_late_mean_ns * 1e-3, "us");
  r.add("openloop.backlog_max", static_cast<double>(in.backlog_max), "count");
  r.add("openloop.samples", static_cast<double>(h.count()), "count");
}

// ---- the two kinds of run -------------------------------------------

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string trace_out;
};

Timing timing(const Args& a, double timed_s) {
  return {timed_s * kWarmShare, timed_s, a.seed, mix64(a.seed ^ 0xca11ull)};
}

template <typename Q>
Report end_to_end(const Args& a, const wcq::options& opt) {
  const Spec& spec = *a.spec;
  Report r;
  Setup setup;
  std::vector<double> mops, p50, p90, mem;
  for (unsigned i = 0; i < kInstances; ++i) {
    measure_setup<Q, false>(opt, spec.threads, kSetupReps, setup, nullptr);
    Timing tm = timing(a, a.seconds / kInstances);
    tm.seed = mix64(a.seed + i);
    const Instance in = spec.kind == Kind::openloop
                            ? openloop_instance<false>(opt, tm, nullptr)
                            : closed_instance<Q, false>(spec, opt, tm, nullptr);
    print_instance(spec.name, "instance", i, kInstances, in);
    r.count(in);
    mops.push_back(in.mops);
    p50.push_back(in.lat_ns.quantile(0.5) * 1e-3);
    p90.push_back(in.lat_ns.tail_quantile(0.90) * 1e-3);
    mem.push_back(static_cast<double>(in.mem_peak) / 1e6);
  }
  r.add("throughput_mops", median(mops), "Mops/s");
  r.add("lat_p50_us", median(p50), "us");
  r.add("lat_p90_us", median(p90), "us");
  r.add("setup_s", median(setup.total_s), "s");
  r.add("mem_peak_mb", median(mem), "MB");
  return r;
}

bool write_trace(const Args& a, const std::vector<SpanLog>& logs) {
  if (a.trace_out.empty()) return true;
  std::vector<const SpanLog*> ptrs;
  for (const SpanLog& l : logs) ptrs.push_back(&l);
  if (suite::write_chrome_trace(a.trace_out, a.spec->name, g_origin, ptrs)) {
    return true;
  }
  std::fprintf(stderr, "wcq_suite: cannot write %s\n", a.trace_out.c_str());
  return false;
}

std::vector<SpanLog> make_logs(const Spec& spec) {
  std::vector<SpanLog> logs;
  logs.emplace_back(0, "main (set-up)");
  for (unsigned t = 0; t < spec.threads; ++t) {
    std::string label;
    if (spec.kind == Kind::openloop) {
      label = t < 2 ? "producer " + std::to_string(t)
                    : "consumer " + std::to_string(t - 2);
    } else {
      label = "worker " + std::to_string(t);
    }
    logs.emplace_back(t + 1, label);
  }
  return logs;
}

// Traced run: the system under test once with spans on, then the
// ladder rungs (closed workloads) untraced, sharing --seconds.
template <typename Q>
Report per_layer(const Args& a, const wcq::options& opt, bool* io_ok) {
  const Spec& spec = *a.spec;
  Report r;
  std::vector<SpanLog> logs = make_logs(spec);
  Setup setup;
  measure_setup<Q, true>(opt, spec.threads, kInstances * kSetupReps, setup,
                         &logs[0]);
  std::vector<double> ns(kRungCount, 0.0);
  const Instance none;

  if (spec.kind == Kind::openloop) {
    // Untraced, then traced; the overhead is read off the median
    // latency, the rate being fixed.
    const Timing tm = timing(a, a.seconds / 2);
    const Instance untraced = openloop_instance<false>(opt, tm, nullptr);
    print_instance(spec.name, "untraced", 0, 2, untraced);
    const Instance traced = openloop_instance<true>(opt, tm, &logs);
    print_instance(spec.name, "traced", 1, 2, traced);
    r.count(untraced);
    r.count(traced);
    const double p50 = untraced.lat_ns.quantile(0.5);
    add_ladder_metrics(r, spec, ns, none);
    add_counter_metrics(r, untraced, false);
    add_setup_metrics(r, setup);
    add_span_metrics(r, traced,
                     ratio((traced.lat_ns.quantile(0.5) - p50) * 100, p50));
    add_openloop_metrics(r, untraced);
    *io_ok = write_trace(a, logs);
    return r;
  }

  const bool batch = spec.kind == Kind::batch;
  std::vector<std::size_t> rungs;
  for (std::size_t i = 0; i < kRungCount; ++i) {
    if (batch || !kRungs[i].batch_only) rungs.push_back(i);
  }
  // Batch's system under test is not a rung, so it gets its own
  // untraced instance for the tracing overhead.
  const unsigned items = 1 + (batch ? 1 : 0) +
                         kLadderRounds * static_cast<unsigned>(rungs.size());
  const Timing tm = timing(a, a.seconds / items);

  const Instance traced = closed_instance<Q, true>(spec, opt, tm, &logs);
  print_instance(spec.name, "traced", 0, 1, traced);
  r.count(traced);
  double untraced_mops = 0;
  if (batch) {
    const Instance in = closed_instance<Q, false>(spec, opt, tm, nullptr);
    print_instance(spec.name, "untraced", 0, 1, in);
    r.count(in);
    untraced_mops = in.mops;
  }
  Instance lscq;
  for (unsigned round = 0; round < kLadderRounds; ++round) {
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const std::size_t i = round % 2 ? rungs[rungs.size() - 1 - k] : rungs[k];
      const Instance in = kRungs[i].run(spec, tm);
      print_instance(spec.name, kRungs[i].name, round, kLadderRounds, in);
      r.count(in);
      ns[i] += ratio(spec.threads * 1000.0, in.mops) / kLadderRounds;
      if (!batch && i == kWcq) untraced_mops += in.mops / kLadderRounds;
      if (i == kLscq && round == 0) lscq = in;
    }
  }
  add_ladder_metrics(r, spec, ns, lscq);
  add_counter_metrics(r, traced, batch);
  add_setup_metrics(r, setup);
  add_span_metrics(r, traced,
                   ratio((untraced_mops - traced.mops) * 100, untraced_mops));
  add_openloop_metrics(r, none);
  *io_ok = write_trace(a, logs);
  return r;
}

template <typename Q>
Report run(const Args& a, const wcq::options& opt, bool* io_ok) {
  return a.trace ? per_layer<Q>(a, opt, io_ok) : end_to_end<Q>(a, opt);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "wcq_suite: %s\nusage: wcq_suite --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               msg);
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        if (std::strcmp(s.name, v) == 0) a.spec = &s;
      }
      if (a.spec == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.spec == nullptr) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  g_origin = now_ns();
  const Args a = parse(argc, argv);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) g_cpus.push_back(c);
    }
  }
  if (g_cpus.empty()) g_cpus.push_back(0);
  pin_to(g_cpus[0]);

  bool io_ok = true;
  const Report r = a.spec->kind == Kind::batch
                       ? run<BatchQueue>(a, sharded_options(), &io_ok)
                       : run<U64Queue>(a, wcq::options{}, &io_ok);
  r.print();
  return io_ok ? 0 : 1;
}
