// LCRQ-specific coverage, beyond the shared battery the ctest lineup
// already runs against it (fifo_lcrq / empty_full_lcrq / mpmc_lcrq).
// These tests force the parts the generic battery touches only by
// luck: ring closure and ring-list crossing (tiny order), retirement
// of drained rings through the shared SMR layer (bounded, non-zero
// reclamation), the reserved all-ones sentinel, and heavy MPMC churn
// over a ring small enough that every few hundred ops closes one.
#include <cstdint>
#include <stdexcept>

#include "queue_test_common.hpp"
#include "wcq/mem.hpp"
#include "wcq/queue.hpp"

namespace {

using namespace wcq;
using harness::LcrqAdapter;

// Order-4 ring (16 cells), thousands of values: every 16 pushes close
// the ring and link a fresh one, so FIFO order must survive dozens of
// ring crossings, and the drained rings must come back through the
// domain (reclaimed > 0) instead of accumulating.
void test_ring_crossing() {
  const std::uint64_t n = 4096;
  LcrqAdapter q(options{}.max_threads(2).order(4));
  auto h = q.get_handle();

  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "push %llu refused", (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v.has_value(), "pop %llu empty", (unsigned long long)i);
    WCQ_CHECK(*v == i, "FIFO violated across ring crossings: got %llu want %llu",
              (unsigned long long)*v, (unsigned long long)i);
  }
  WCQ_CHECK(!q.try_pop(h).has_value(), "queue should be drained");

  const auto st = q.smr_stats();
  // n values over 16-cell rings retire ~n/16 rings; almost all must
  // already be freed, and what's parked is under the amnesty bound.
  WCQ_CHECK(st.retire_calls >= n / 16 - 1,
            "expected ~%llu ring retirements, saw %llu",
            (unsigned long long)(n / 16), (unsigned long long)st.retire_calls);
  WCQ_CHECK(st.reclaimed_nodes > 0, "no drained ring was ever reclaimed");
  WCQ_CHECK(st.retired_nodes <= 2 * 2 * 2,  // slots x MAX_GARBAGE(2)
            "parked rings exceed the amnesty bound: %llu",
            (unsigned long long)st.retired_nodes);
  std::printf("  ok lcrq_ring_crossing (%llu retires, %llu reclaimed)\n",
              (unsigned long long)st.retire_calls,
              (unsigned long long)st.reclaimed_nodes);
}

// The all-ones pattern is the cell-EMPTY sentinel: try_push must
// refuse it (false) instead of losing it, and the refusal must not
// disturb the queue.
void test_sentinel_refused() {
  LcrqAdapter q(options{}.max_threads(2).order(4));
  auto h = q.get_handle();
  WCQ_CHECK(!q.try_push(~std::uint64_t{0}, h),
            "all-ones sentinel must be refused");
  WCQ_CHECK(q.try_push(1, h), "normal push after refusal failed");
  const auto v = q.try_pop(h);
  WCQ_CHECK(v && *v == 1, "queue disturbed by sentinel refusal");
  WCQ_CHECK(!q.try_pop(h).has_value(), "refused sentinel leaked into queue");
  std::printf("  ok lcrq_sentinel_refused\n");
}

// MPMC over an order-5 ring, as a test::test_mpmc run (ledger,
// per-producer order, empty-answer witness): producers outrun the ring
// constantly, so closes, fix_state repairs, and concurrent ring
// retirement all happen under contention. Afterwards the SMR counters
// must show real bounded reclamation, and queue teardown must return
// every ring to the counting allocator.
void test_mpmc_ring_churn() {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 4;
  const auto mem_before = mem::stats().live_bytes;
  std::uint64_t retire_calls = 0;
  {
    LcrqAdapter q(options{}.max_threads(kProducers + kConsumers).order(5));
    test::MpmcRun<LcrqAdapter> run;
    run.after = [&](LcrqAdapter& q) {
      const auto st = q.smr_stats();
      retire_calls = st.retire_calls;
      WCQ_CHECK(st.reclaimed_nodes > 0,
                "MPMC churn reclaimed nothing (%llu retires parked forever?)",
                (unsigned long long)st.retire_calls);
      // Bound: every handle slot can park at most threshold rings, plus
      // one hazard-held ring per slot that scans could not free.
      const std::uint64_t slots = kProducers + kConsumers;
      WCQ_CHECK(st.retired_nodes <= slots * (2 * slots) + slots,
                "parked rings exceed the amnesty bound: %llu",
                (unsigned long long)st.retired_nodes);
    };
    test::test_mpmc(q, "lcrq order 5", kProducers, kConsumers,
                    test::env_ops(20000), run);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "LCRQ leaked %llu bytes of rings",
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok lcrq_mpmc_ring_churn (%llu ring retires)\n",
              (unsigned long long)retire_calls);
}

// An order that would overflow the packed [safe|idx] arithmetic must
// be a reportable configuration error, not silent corruption.
void test_order_validation() {
  bool threw = false;
  try {
    LcrqAdapter q(options{}.max_threads(2).order(31));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  WCQ_CHECK(threw, "order > 30 must throw std::invalid_argument");
  std::printf("  ok lcrq_order_validation\n");
}

}  // namespace

int main() {
  test_ring_crossing();
  test_sentinel_refused();
  test_mpmc_ring_churn();
  test_order_validation();
  return 0;
}
