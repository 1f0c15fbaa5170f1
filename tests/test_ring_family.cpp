// Differential fuzzing across the SCQ ring family. All five queues —
// SCQ, NCQ, CCQ, LSCQ and wCQ — now sit on the same layered ring
// kernel (ring_math / ring_entry / ring_policy, plus ring_noted for
// wCQ), so they must be observationally identical FIFO queues; only
// their progress guarantees and boundedness differ. The checks:
//
//  1. Serial differential vs a std::deque model on a randomized op
//     tape with fill/drain regime waves: every push accept/refuse and
//     every pop value must match the model exactly. The four bounded
//     members run a small ring (order 4, capacity 16) so the tape
//     wraps the cycle counter many times and hits full episodes;
//     LSCQ runs the unbounded variant (pushes may never refuse) with
//     order-4 segments so the tape crosses segment boundaries. The
//     wCQ members (native and portable) mix in try_push_n/try_pop_n
//     of 1-64 values, which wcq::queue hands to WcqQueueT's native
//     ticket bursts a chunk at a time: a push_n must accept exactly
//     the model's free space, and a pop_n must return a FIFO prefix of
//     the model, non-empty whenever the model is.
//  2. Tape agreement: one no-refusal tape (pending kept inside
//     (0, capacity) by construction) replayed on all five queues must
//     yield byte-identical pop traces.
//  3. Concurrent fuzz per queue: threads each run a random push/pop
//     mix over one queue (batch calls among them for the wCQ members,
//     on rings of 2, 8 and 64 values, at default patience and at
//     patience 1); accounting must be exact (every accepted push popped
//     exactly once, nothing invented, and the final drain finds every
//     survivor) and each popping thread must see every pusher's values
//     in monotone order.
//  4. Start-full differential per index ring (SCQ, NCQ, CCQ): a ring
//     constructed full must be indistinguishable from an empty one
//     filled by capacity enqueue_idx calls, which is the reference.
//  5. Empty polls without a ticket, per SCQ-kernel ring (SCQ, CCQ,
//     LSCQ's closable value ring, and wCQ's fq): once a fruitless
//     ticket has spent the threshold below armed, a ring whose Tail
//     is at or below Head answers empty with Head and Tail untouched.
//  6. A stage 2's data access, per plain SCQ-kernel ring (SCQ, CCQ,
//     LSCQ's value ring): enqueue_idx runs it exactly once, after its
//     first Tail ticket and before any install, and a closed ring
//     never runs it.
//  7. Cache_Remap, the one entry layout (ring::Geometry): map is a
//     bijection of the ring's positions that unmap inverts, and it
//     spreads consecutive positions over distinct cache lines.
//  8. A closed LSCQ value ring (with the lscq member): every value
//     enqueued before close() drains out, however many refused
//     enqueues took a Tail ticket after it, and the drain then
//     certifies the ring sterile.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <numeric>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/ccq.hpp"
#include "wcq/detail.hpp"
#include "wcq/ncq.hpp"
#include "wcq/queue.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/scq.hpp"
#include "wcq/wcq.hpp"

namespace {

using namespace wcq;

// Deterministic splitmix64: the tape must be identical across queues
// and across runs (failures reproduce).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// ---- 1. serial differential vs std::deque ----

// `batch`: one op in four is a try_push_n/try_pop_n of 1-64 values.
template <concepts::Queue Q>
void diff_model(const char* name, unsigned order, bool bounded,
                std::uint64_t ops, bool batch = false) {
  Q q(options{}.max_threads(2).order(order));
  auto h = q.get_handle();
  const std::uint64_t cap = std::uint64_t{1} << order;

  std::deque<std::uint64_t> model;
  Rng rng{0x5ca1ab1e0ddba11ull};
  std::uint64_t next_value = 1;
  std::uint64_t buf[kBatchChunk];

  for (std::uint64_t i = 0; i < ops; ++i) {
    // Regime waves: 256 push-heavy ops, then 256 pop-heavy, so the
    // tape holds the ring near-full and near-empty in turn.
    const bool push_heavy = ((i >> 8) & 1) == 0;
    const unsigned push_pct = push_heavy ? 75 : 25;
    if (batch && rng.next() % 4 == 0) {
      const std::size_t n = 1 + rng.next() % kBatchChunk;
      if (rng.next() % 100 < push_pct) {
        for (std::size_t k = 0; k < n; ++k) buf[k] = next_value + k;
        next_value += n;
        const std::size_t ok = q.try_push_n(buf, n, h);
        const std::size_t want =
            bounded ? std::min<std::uint64_t>(n, cap - model.size()) : n;
        WCQ_CHECK(ok == want,
                  "%s: op %llu push_n(%zu) took %zu, model (size %zu/%llu) "
                  "says %zu",
                  name, (unsigned long long)i, n, ok, model.size(),
                  (unsigned long long)cap, want);
        model.insert(model.end(), buf, buf + ok);
      } else {
        const std::size_t got = q.try_pop_n(buf, n, h);
        WCQ_CHECK(got <= n && got <= model.size() &&
                      (got > 0 || model.empty()),
                  "%s: op %llu pop_n(%zu) got %zu, model holds %zu", name,
                  (unsigned long long)i, n, got, model.size());
        for (std::size_t k = 0; k < got; ++k) {
          WCQ_CHECK(buf[k] == model.front(),
                    "%s: op %llu pop_n value %zu is %llu want %llu", name,
                    (unsigned long long)i, k, (unsigned long long)buf[k],
                    (unsigned long long)model.front());
          model.pop_front();
        }
      }
      continue;
    }
    if (rng.next() % 100 < push_pct) {
      const std::uint64_t v = next_value++;
      const bool ok = q.try_push(v, h);
      const bool model_ok = !bounded || model.size() < cap;
      WCQ_CHECK(ok == model_ok,
                "%s: op %llu push(%llu) %s but model (size %zu/%llu) says %s",
                name, (unsigned long long)i, (unsigned long long)v,
                ok ? "accepted" : "refused", model.size(),
                (unsigned long long)cap, model_ok ? "accept" : "refuse");
      if (ok) model.push_back(v);
    } else {
      const auto v = q.try_pop(h);
      if (model.empty()) {
        WCQ_CHECK(!v.has_value(), "%s: op %llu popped %llu from empty model",
                  name, (unsigned long long)i, (unsigned long long)*v);
      } else {
        WCQ_CHECK(v.has_value(), "%s: op %llu empty but model holds %zu",
                  name, (unsigned long long)i, model.size());
        WCQ_CHECK(*v == model.front(), "%s: op %llu popped %llu want %llu",
                  name, (unsigned long long)i, (unsigned long long)*v,
                  (unsigned long long)model.front());
        model.pop_front();
      }
    }
  }
  // Drain: the survivors must come out in model order, then empty.
  while (!model.empty()) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == model.front(), "%s: drain diverged from model",
              name);
    model.pop_front();
  }
  WCQ_CHECK(!q.try_pop(h).has_value(), "%s: queue outlived its model", name);
  std::printf("  ok diff_model        %s\n", name);
}

// ---- 2. one tape, five queues, identical traces ----

struct TapeOp {
  bool push;
};

template <concepts::Queue Q>
std::vector<std::uint64_t> replay(const char* name, unsigned order,
                                  const std::vector<TapeOp>& tape) {
  Q q(options{}.max_threads(2).order(order));
  auto h = q.get_handle();
  std::vector<std::uint64_t> popped;
  std::uint64_t next_value = 1;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (tape[i].push) {
      WCQ_CHECK(q.try_push(next_value, h),
                "%s: no-refusal tape push %llu refused at op %zu", name,
                (unsigned long long)next_value, i);
      ++next_value;
    } else {
      const auto v = q.try_pop(h);
      WCQ_CHECK(v.has_value(), "%s: no-refusal tape pop empty at op %zu",
                name, i);
      popped.push_back(*v);
    }
  }
  return popped;
}

void test_tape_agreement() {
  // Pending stays inside (0, cap): pushes never refuse on a
  // capacity-16 ring and pops never hit empty, so every queue must
  // produce the same trace. Values still wrap the order-4 cycle
  // counter hundreds of times and cross several LSCQ segments.
  constexpr unsigned kOrder = 4;
  const std::uint64_t cap = std::uint64_t{1} << kOrder;
  const std::uint64_t ops = test::env_ops(20000);
  Rng rng{0xfee1900dull};
  std::vector<TapeOp> tape;
  tape.reserve(ops);
  std::uint64_t pending = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    bool push = rng.next() % 2 == 0;
    if (pending == 0) push = true;
    if (pending == cap) push = false;
    tape.push_back(TapeOp{push});
    pending = push ? pending + 1 : pending - 1;
  }

  const auto scq = replay<harness::ScqAdapter>("scq", kOrder, tape);
  const auto ncq = replay<harness::NcqAdapter>("ncq", kOrder, tape);
  const auto ccq = replay<harness::CcqAdapter>("ccq", kOrder, tape);
  const auto lscq = replay<harness::LscqAdapter>("lscq", kOrder, tape);
  const auto wcq_t = replay<harness::WcqAdapter>("wcq", kOrder, tape);

  WCQ_CHECK(ncq == scq, "ncq trace diverged from scq on a shared tape");
  WCQ_CHECK(ccq == scq, "ccq trace diverged from scq on a shared tape");
  WCQ_CHECK(lscq == scq, "lscq trace diverged from scq on a shared tape");
  WCQ_CHECK(wcq_t == scq, "wcq trace diverged from scq on a shared tape");
  std::printf("  ok tape_agreement    (%zu ops, %zu pops, 5 queues)\n",
              tape.size(), scq.size());
}

// ---- 3. concurrent randomized push/pop mix ----

// `batch`: half the pushes and pops are try_push_n/try_pop_n of 1-64.
template <concepts::Queue Q>
void fuzz_concurrent(const char* name, unsigned order, bool batch = false,
                     const options& base = options{}) {
  constexpr unsigned kThreads = 4;
  const std::uint64_t per_thread = test::env_ops(12000);
  const std::uint64_t value_space = kThreads * per_thread;

  Q q(options{base}.max_threads(kThreads + 1).order(order));
  std::vector<std::atomic<std::uint32_t>> seen(value_space);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::vector<std::uint64_t> pushed(kThreads, 0);
  std::atomic<bool> order_ok{true};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = q.get_handle();
      Rng rng{0xdecafbad + t};
      std::uint64_t seq = 0;
      std::vector<std::uint64_t> last(kThreads, 0);
      std::vector<bool> any(kThreads, false);
      const auto take = [&](std::uint64_t v) {
        WCQ_CHECK(v < value_space, "%s: invented value %llu", name,
                  (unsigned long long)v);
        seen[v].fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t p = v / per_thread;
        const std::uint64_t s = v % per_thread;
        if (any[p] && s <= last[p]) {
          order_ok.store(false, std::memory_order_relaxed);
        }
        last[p] = s;
        any[p] = true;
      };
      std::uint64_t buf[kBatchChunk];
      for (std::uint64_t i = 0; i < per_thread * 2; ++i) {
        const bool push = rng.next() % 2 == 0 && seq < per_thread;
        const std::size_t n =
            batch && rng.next() % 2 == 0 ? 1 + rng.next() % kBatchChunk : 0;
        // A refused push (bounded queue momentarily full) is simply not
        // retried; accounting only covers accepted pushes.
        if (push && n > 0) {
          const std::size_t k = std::min<std::uint64_t>(n, per_thread - seq);
          for (std::size_t j = 0; j < k; ++j) buf[j] = t * per_thread + seq + j;
          seq += q.try_push_n(buf, k, h);
        } else if (push) {
          if (q.try_push(t * per_thread + seq, h)) ++seq;
        } else if (n > 0) {
          const std::size_t got = q.try_pop_n(buf, n, h);
          for (std::size_t j = 0; j < got; ++j) take(buf[j]);
        } else if (const auto v = q.try_pop(h)) {
          take(*v);
        }
      }
      pushed[t] = seq;
    });
  }
  for (auto& th : threads) th.join();

  // Drain the survivors on the main thread, then audit: every value a
  // thread reports as pushed must have been seen exactly once, and no
  // unpushed value may appear at all.
  {
    auto h = q.get_handle();
    while (const auto v = q.try_pop(h)) {
      WCQ_CHECK(*v < value_space, "%s: invented value %llu in drain", name,
                (unsigned long long)*v);
      seen[*v].fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::uint64_t total_pushed = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    total_pushed += pushed[t];
    for (std::uint64_t s = 0; s < per_thread; ++s) {
      const std::uint64_t v = t * per_thread + s;
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      const std::uint32_t want = s < pushed[t] ? 1 : 0;
      WCQ_CHECK(count == want, "%s: value %llu seen %u times, want %u",
                name, (unsigned long long)v, count, want);
    }
  }
  WCQ_CHECK(order_ok.load(), "%s: per-producer FIFO order violated", name);
  std::printf(
      "  ok fuzz_concurrent   %s order %u (%llu of %llu pushes accepted)\n",
      name, order, (unsigned long long)total_pushed,
      (unsigned long long)value_space);
}

// ---- 4. a ring started full vs one filled by enqueues ----

template <typename Ring>
void seed_differential(const char* name, unsigned order) {
  Ring started(order, /*full=*/true);
  Ring filled(order, /*full=*/false);
  const std::uint64_t n = filled.capacity();
  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(filled.enqueue_idx(i, Ring::kUnbounded) == Ring::kOk,
              "%s: reference enqueue of %llu failed", name,
              (unsigned long long)i);
  }
  // Head and Tail, where the ring exposes them.
  auto positions_agree = [&](std::uint64_t op) {
    if constexpr (requires { started.head(); }) {
      WCQ_CHECK(started.head() == filled.head() &&
                    started.tail() == filled.tail(),
                "%s order %u op %llu: started head/tail %llu/%llu, "
                "filled %llu/%llu",
                name, order, (unsigned long long)op,
                (unsigned long long)started.head(),
                (unsigned long long)started.tail(),
                (unsigned long long)filled.head(),
                (unsigned long long)filled.tail());
    }
  };
  // One dequeue from each ring; outcome and index must match.
  auto dequeue_both = [&](std::uint64_t op) {
    std::uint64_t a = ~std::uint64_t{0};
    std::uint64_t b = ~std::uint64_t{0};
    const auto ra = started.dequeue_idx(&a, Ring::kUnbounded);
    const auto rb = filled.dequeue_idx(&b, Ring::kUnbounded);
    WCQ_CHECK(ra == rb && (ra != Ring::kOk || a == b),
              "%s order %u op %llu: started %d/%llu, filled %d/%llu",
              name, order, (unsigned long long)op, (int)ra,
              (unsigned long long)a, (int)rb, (unsigned long long)b);
    return ra == Ring::kOk ? std::optional<std::uint64_t>(a) : std::nullopt;
  };

  positions_agree(0);
  // Full drain: 0..n-1 in order, then empty.
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto idx = dequeue_both(i);
    WCQ_CHECK(idx && *idx == i, "%s order %u: drain slot %llu", name, order,
              (unsigned long long)i);
  }
  WCQ_CHECK(!dequeue_both(n), "%s order %u: drained ring not empty", name,
            order);
  positions_agree(n);

  // A random tape over the free indices (at most n live, as the
  // two-ring construction guarantees).
  std::vector<std::uint64_t> free_idx(n);
  std::iota(free_idx.begin(), free_idx.end(), 0);
  Rng rng{0x5eed0000ull + order};
  for (std::uint64_t op = 0; op < 4000; ++op) {
    if (!free_idx.empty() && rng.next() % 2 == 0) {
      const std::size_t k = rng.next() % free_idx.size();
      const std::uint64_t idx = free_idx[k];
      free_idx[k] = free_idx.back();
      free_idx.pop_back();
      WCQ_CHECK(started.enqueue_idx(idx, Ring::kUnbounded) == Ring::kOk &&
                    filled.enqueue_idx(idx, Ring::kUnbounded) == Ring::kOk,
                "%s order %u op %llu: enqueue failed", name, order,
                (unsigned long long)op);
    } else if (const auto idx = dequeue_both(op)) {
      free_idx.push_back(*idx);
    }
    positions_agree(op);
  }
}

void test_seed_full() {
  for (const unsigned order : {1u, 4u, 10u}) {
    seed_differential<ScqRing>("scq", order);
    seed_differential<NcqRing>("ncq", order);
    seed_differential<CcqRing>("ccq", order);
  }
  std::printf("  ok seed_full         (scq, ncq, ccq; orders 1/4/10)\n");
}

// ---- 5. empty polls of a ring seen empty take no ticket ----

// After one index in and out, the first empty dequeue takes a ticket
// (the threshold is armed); the next 1000 answer empty from Tail <= Head
// and leave both where they were; an index enqueued after them still
// comes back. At order 10 the threshold's 3n - 1 = 3071 fruitless
// tickets outlast the 1000 polls, so without this exit every one of
// them would take a ticket.
template <typename Ring>
void empty_exit_takes_no_ticket(const char* name) {
  Ring ring(10, /*full=*/false);
  std::uint64_t idx = 0;
  WCQ_CHECK(ring.enqueue_idx(7, Ring::kUnbounded) == Ring::kOk &&
                ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk &&
                idx == 7,
            "%s: round trip of index 7 failed", name);
  const std::uint64_t h0 = ring.head();
  WCQ_CHECK(ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kEmpty &&
                ring.head() == h0 + 1,
            "%s: the first empty dequeue moved Head %llu -> %llu, want +1",
            name, (unsigned long long)h0, (unsigned long long)ring.head());
  const std::uint64_t h = ring.head();
  const std::uint64_t t = ring.tail();
  for (int i = 0; i < 1000; ++i) {
    WCQ_CHECK(ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kEmpty,
              "%s: empty dequeue %d found index %llu", name, i,
              (unsigned long long)idx);
  }
  WCQ_CHECK(ring.head() == h && ring.tail() == t,
            "%s: 1000 empty dequeues moved Head/Tail %llu/%llu -> %llu/%llu",
            name, (unsigned long long)h, (unsigned long long)t,
            (unsigned long long)ring.head(), (unsigned long long)ring.tail());
  WCQ_CHECK(ring.enqueue_idx(3, Ring::kUnbounded) == Ring::kOk &&
                ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk &&
                idx == 3,
            "%s: index 3 enqueued after the empty polls did not come back",
            name);
}

// The same through wCQ's try_pop, on its fq ring.
template <bool Portable>
void wcq_empty_exit_takes_no_ticket(const char* name) {
  using Access = WcqTestAccess<Portable>;
  WcqQueueT<Portable> q(options{}.order(10).max_threads(2));
  auto hd = test::backend_handle(q);
  std::uint64_t v = 0;
  WCQ_CHECK(q.try_push(7, hd) && q.try_pop(&v, hd) && v == 7,
            "%s: round trip of 7 failed", name);
  const std::uint64_t h0 = Access::head(q, /*fq=*/true);
  WCQ_CHECK(!q.try_pop(&v, hd) && Access::head(q, true) == h0 + 1,
            "%s: the first empty pop moved Head %llu -> %llu, want +1", name,
            (unsigned long long)h0, (unsigned long long)Access::head(q, true));
  const std::uint64_t h = Access::head(q, true);
  const std::uint64_t t = Access::tail(q, true);
  for (int i = 0; i < 1000; ++i) {
    WCQ_CHECK(!q.try_pop(&v, hd), "%s: empty pop %d found %llu", name, i,
              (unsigned long long)v);
  }
  WCQ_CHECK(Access::head(q, true) == h && Access::tail(q, true) == t,
            "%s: 1000 empty pops moved Head/Tail %llu/%llu -> %llu/%llu", name,
            (unsigned long long)h, (unsigned long long)t,
            (unsigned long long)Access::head(q, true),
            (unsigned long long)Access::tail(q, true));
  WCQ_CHECK(q.try_push(3, hd) && q.try_pop(&v, hd) && v == 3,
            "%s: 3 pushed after the empty polls did not come back", name);
}

// ---- 6. a stage 2's data access ----

// The access counts its calls, checks that Tail has moved past its
// ticket, and dequeues on the same ring. With the threshold armed that
// dequeue takes a Head ticket at the enqueue's position, before the
// install, so it must answer empty; the enqueue then places its index
// through a second ticket.
template <typename Ring>
void stage2_access_after_first_ticket(const char* name) {
  Ring ring(10, /*full=*/false);
  std::uint64_t idx = 0;
  // One index in and out arms the threshold.
  WCQ_CHECK(ring.enqueue_idx(7, Ring::kUnbounded) == Ring::kOk &&
                ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk &&
                idx == 7,
            "%s: round trip of index 7 failed", name);
  unsigned calls = 0;
  std::uint64_t t0 = 0;
  const auto access = [&] {
    ++calls;
    WCQ_CHECK(ring.tail() == t0 + 1,
              "%s: the access ran at Tail %llu, not after its ticket %llu",
              name, (unsigned long long)ring.tail(), (unsigned long long)t0);
    std::uint64_t got = 0;
    WCQ_CHECK(ring.dequeue_idx(&got, Ring::kUnbounded) == Ring::kEmpty,
              "%s: the access's dequeue found index %llu: the install ran "
              "first",
              name, (unsigned long long)got);
  };
  t0 = ring.tail();
  WCQ_CHECK(ring.enqueue_idx(5, Ring::kUnbounded, access) == Ring::kOk &&
                calls == 1 && ring.tail() == t0 + 2,
            "%s: enqueue with an access: %u calls, Tail %llu -> %llu, want "
            "1 call and a second ticket",
            name, calls, (unsigned long long)t0,
            (unsigned long long)ring.tail());
  WCQ_CHECK(ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk && idx == 5,
            "%s: index 5 did not come back", name);
  // With one attempt the lost ticket is the last: kContended, and the
  // access still ran once.
  calls = 0;
  t0 = ring.tail();
  WCQ_CHECK(ring.enqueue_idx(9, 1, access) == Ring::kContended && calls == 1,
            "%s: one attempt with an access: %u calls, want kContended "
            "after 1",
            name, calls);
  if constexpr (std::is_same_v<Ring, FinalScqRing>) {
    calls = 0;
    ring.close();
    WCQ_CHECK(ring.enqueue_idx(9, Ring::kUnbounded, access) == Ring::kClosed &&
                  calls == 0,
              "%s: closed ring: %u calls, want kClosed and none", name, calls);
  }
}

void test_stage2_access() {
  stage2_access_after_first_ticket<ScqRing>("scq");
  stage2_access_after_first_ticket<CcqRing>("ccq");
  stage2_access_after_first_ticket<FinalScqRing>("lscq's value ring");
  std::printf("  ok stage2_access     (scq, ccq, lscq)\n");
}

// ---- 7. Cache_Remap: the one entry layout ----

// Checks Geometry(order, entry_bytes)'s layout at position p: map(p)
// is an entry of the ring that depends on p mod ring_size alone, unmap
// takes it back, a ring that fits one cache line keeps position order,
// and the `window` positions from p on sit on distinct lines.
void check_layout_at(const ring::Geometry& g, std::uint64_t p,
                     std::uint64_t per_line, std::uint64_t window,
                     const char* what) {
  const std::uint64_t size = g.ring_size();
  const std::uint64_t j = g.map(p);
  WCQ_CHECK(j < size && g.unmap(j) == p % size,
            "%s: position %llu maps to entry %llu, which unmaps to %llu",
            what, (unsigned long long)p, (unsigned long long)j,
            (unsigned long long)g.unmap(j));
  // p + k * size wraps modulo 2^64, a multiple of size, so it stays
  // congruent to p.
  for (const std::uint64_t k : {1ull, 7ull, 1ull << 40, ~0ull}) {
    WCQ_CHECK(g.map(p + k * size) == j,
              "%s: position %llu maps to %llu, but %llu rings on to %llu",
              what, (unsigned long long)p, (unsigned long long)j,
              (unsigned long long)k,
              (unsigned long long)g.map(p + k * size));
  }
  if (size <= per_line) {
    WCQ_CHECK(j == p % size, "%s: one-line ring maps %llu to %llu", what,
              (unsigned long long)p, (unsigned long long)j);
  }
  std::uint64_t line[detail::kCacheLine];
  for (std::uint64_t d = 0; d < window; ++d) {
    line[d] = g.map(p + d) / per_line;
    for (std::uint64_t e = 0; e < d; ++e) {
      WCQ_CHECK(line[d] != line[e],
                "%s: positions %llu and %llu share cache line %llu", what,
                (unsigned long long)(p + e), (unsigned long long)(p + d),
                (unsigned long long)line[d]);
    }
  }
}

// Up to order 20, every position of the ring (and map must hit every
// entry once); above it, spot checks. Any min(entries per line, lines)
// consecutive positions must sit on as many lines: a ring of fewer
// lines than a line has entries cannot do better.
void layout_contract(unsigned order, std::size_t entry_bytes) {
  const ring::Geometry g(order, entry_bytes);
  const std::uint64_t size = g.ring_size();
  const std::uint64_t per_line = detail::kCacheLine / entry_bytes;
  const std::uint64_t window = std::min(per_line, std::max<std::uint64_t>(
                                                      size / per_line, 1));
  char what[64];
  std::snprintf(what, sizeof what, "order %u, %zu-byte entries", order,
                entry_bytes);
  if (order <= 20) {
    std::vector<bool> hit(size, false);
    for (std::uint64_t p = 0; p < size; ++p) {
      WCQ_CHECK(g.map(p) < size && !hit[g.map(p)],
                "%s: entry %llu taken twice", what,
                (unsigned long long)g.map(p));
      hit[g.map(p)] = true;
      check_layout_at(g, p, per_line, window, what);
    }
    return;
  }
  Rng rng{0x1a7ull + order};
  for (int i = 0; i < 4096; ++i) {
    check_layout_at(g, rng.next(), per_line, window, what);
  }
  // The wrap from the last position of a cycle to the first.
  check_layout_at(g, size - window, per_line, window, what);
  check_layout_at(g, size - 1, per_line, window, what);
}

void test_geometry() {
  for (const std::size_t entry_bytes : {8u, 16u}) {
    for (unsigned order = 0; order <= ring::kMaxOrder; ++order) {
      layout_contract(order, entry_bytes);
    }
  }
  std::printf("  ok geometry          (orders 0-20 whole, to %u spot-checked;"
              " 8- and 16-byte entries)\n",
              ring::kMaxOrder);
}

// ---- 8. a closed LSCQ value ring drains to sterility ----

// After a few cycles of traffic, five indices are enqueued and the ring
// is closed. Then 100 enqueues are refused; each may take a Tail ticket
// (at most one, and never running its access), so Tail's position runs
// three cycles past the last install. drain_idx must still hand out the
// five in order and then answer kEmpty with Head at or past Tail.
void test_closed_drain() {
  FinalScqRing ring(4, /*full=*/false);
  std::uint64_t idx = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    WCQ_CHECK(ring.enqueue_idx(i % 16, FinalScqRing::kUnbounded) ==
                      FinalScqRing::kOk &&
                  ring.dequeue_idx(&idx, FinalScqRing::kUnbounded) ==
                      FinalScqRing::kOk &&
                  idx == i % 16,
              "closed drain: round trip %llu failed", (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    WCQ_CHECK(ring.enqueue_idx(i, FinalScqRing::kUnbounded) ==
                  FinalScqRing::kOk,
              "closed drain: enqueue of %llu failed", (unsigned long long)i);
  }
  ring.close();
  const std::uint64_t t0 = ring.tail();
  constexpr std::uint64_t kRefused = 100;
  unsigned calls = 0;
  for (std::uint64_t i = 0; i < kRefused; ++i) {
    WCQ_CHECK(ring.enqueue_idx(9, FinalScqRing::kUnbounded,
                               [&] { ++calls; }) == FinalScqRing::kClosed,
              "closed drain: enqueue %llu after close() was not refused",
              (unsigned long long)i);
  }
  WCQ_CHECK(calls == 0 && ring.tail() <= t0 + kRefused,
            "closed drain: %llu refused enqueues ran %u accesses and moved "
            "Tail %llu -> %llu",
            (unsigned long long)kRefused, calls, (unsigned long long)t0,
            (unsigned long long)ring.tail());
  for (std::uint64_t i = 0; i < 5; ++i) {
    WCQ_CHECK(ring.drain_idx(&idx) == FinalScqRing::kOk && idx == i,
              "closed drain: drain %llu did not hand out index %llu",
              (unsigned long long)i, (unsigned long long)i);
  }
  WCQ_CHECK(ring.drain_idx(&idx) == FinalScqRing::kEmpty &&
                ring.head() >= ring.tail(),
            "closed drain: no sterile kEmpty, Head %llu Tail %llu",
            (unsigned long long)ring.head(), (unsigned long long)ring.tail());
  std::printf("  ok closed_drain      (5 values, %llu refused enqueues)\n",
              (unsigned long long)kRefused);
}

void test_empty_exit() {
  empty_exit_takes_no_ticket<ScqRing>("scq");
  empty_exit_takes_no_ticket<CcqRing>("ccq");
  empty_exit_takes_no_ticket<FinalScqRing>("lscq's value ring");
  wcq_empty_exit_takes_no_ticket<false>("wcq");
  wcq_empty_exit_takes_no_ticket<true>("wcq-portable");
  std::printf("  ok empty_exit        (scq, ccq, lscq, wcq, wcq-portable)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t ops = test::env_ops(60000);
  // Serial model differential: bounded members on a tiny ring, LSCQ
  // unbounded across segments.
  if (test::selected(argc, argv, "scq")) {
    diff_model<harness::ScqAdapter>("scq", 4, true, ops);
    fuzz_concurrent<harness::ScqAdapter>("scq", 6);
  }
  if (test::selected(argc, argv, "ncq")) {
    diff_model<harness::NcqAdapter>("ncq", 4, true, ops);
    fuzz_concurrent<harness::NcqAdapter>("ncq", 6);
  }
  if (test::selected(argc, argv, "ccq")) {
    diff_model<harness::CcqAdapter>("ccq", 4, true, ops);
    fuzz_concurrent<harness::CcqAdapter>("ccq", 6);
  }
  // wCQ's bursts race single ops down to a 2-value ring, where a
  // dequeue burst's held tickets meet re-armed thresholds most often.
  const options patience1 = options{}.patience(1, 1);
  if (test::selected(argc, argv, "wcq")) {
    diff_model<harness::WcqAdapter>("wcq", 4, true, ops);
    diff_model<harness::WcqAdapter>("wcq+batch", 4, true, ops, true);
    fuzz_concurrent<harness::WcqAdapter>("wcq", 6);
    for (const unsigned order : {1u, 3u, 6u}) {
      fuzz_concurrent<harness::WcqAdapter>("wcq+batch", order, true);
      fuzz_concurrent<harness::WcqAdapter>("wcq+batch patience 1", order,
                                           true, patience1);
    }
  }
  if (test::selected(argc, argv, "wcq-portable")) {
    diff_model<harness::WcqPortableAdapter>("wcq-portable+batch", 4, true,
                                            ops, true);
    for (const unsigned order : {1u, 3u, 6u}) {
      fuzz_concurrent<harness::WcqPortableAdapter>("wcq-portable+batch",
                                                   order, true);
      fuzz_concurrent<harness::WcqPortableAdapter>(
          "wcq-portable+batch patience 1", order, true, patience1);
    }
  }
  if (test::selected(argc, argv, "lscq")) {
    diff_model<harness::LscqAdapter>("lscq", 4, false, ops);
    fuzz_concurrent<harness::LscqAdapter>("lscq", 4);
    test_closed_drain();
  }
  if (argc < 2 || test::selected(argc, argv, "family")) {
    test_tape_agreement();
  }
  if (argc < 2 || test::selected(argc, argv, "seed")) {
    test_seed_full();
  }
  if (argc < 2 || test::selected(argc, argv, "empty_exit")) {
    test_empty_exit();
  }
  if (argc < 2 || test::selected(argc, argv, "stage2_access")) {
    test_stage2_access();
  }
  if (argc < 2 || test::selected(argc, argv, "geometry")) {
    test_geometry();
  }
  return 0;
}
