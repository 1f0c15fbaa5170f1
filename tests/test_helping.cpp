// Deterministic coverage for wCQ's helper-completion path: the owner
// publishes a ring request and then "stalls" (never drives it, via the
// WcqTestAccess backdoor); a peer doing its own operations must pick
// the request up through help_threads and finalize it through the
// note protocol. On real schedules this window is nanoseconds wide, so
// timing alone cannot exercise it — this is the wait-freedom scenario
// made reproducible.
#include <climits>

#include "queue_test_common.hpp"
#include "wcq/wcq.hpp"

namespace {

template <bool Portable>
void test_helper_completes_stalled_ops(const char* name) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  // help_delay=1: helper checks a peer on every own op
  Queue q(wcq::options{}.order(4).max_threads(4).help_delay(1));
  auto stalled = wcq::test::backend_handle(q);
  auto helper = wcq::test::backend_handle(q);

  // --- stalled enqueue(777): the owner already holds its free index
  // and published the fq-enqueue request; the helper's own (empty)
  // dequeues must complete it, after which the value is really queued.
  WCQ_CHECK(Access::publish_stalled_push(q, stalled, 777),
            "%s: fresh queue had no free index", name);
  std::uint64_t v = 0;
  bool got777 = false;
  int spins = 0;
  while (!Access::done_ok(q, stalled)) {
    // The loop dequeue may consume 777 the moment the help lands.
    if (q.try_pop(&v, helper) && v == 777) got777 = true;
    WCQ_CHECK(++spins < 1000, "%s: helper never completed the enqueue",
              name);
  }
  WCQ_CHECK(Access::finish_push(q, stalled), "%s: stalled enqueue failed",
            name);
  if (!got777) {
    WCQ_CHECK(q.try_pop(&v, helper) && v == 777,
              "%s: helped enqueue value lost (got %llu)", name,
              (unsigned long long)v);
  }

  // --- stalled dequeue: put one value in, publish the request, and
  // drive the helper with enqueue/dequeue churn until it finalizes.
  WCQ_CHECK(q.try_push(888, helper), "%s: seed enqueue refused", name);
  Access::publish_stalled_pop(q, stalled);
  spins = 0;
  while (!Access::done_ok(q, stalled)) {
    // Churn on a disjoint value; the helper must hand 888 (FIFO head)
    // to the stalled requester, not consume it itself. maybe_help runs
    // before the helper's own ring access, so the request claims 888.
    (void)q.try_push(5, helper);
    (void)q.try_pop(&v, helper);
    WCQ_CHECK(++spins < 1000, "%s: helper never completed the dequeue",
              name);
  }
  std::uint64_t popped = 0;
  WCQ_CHECK(Access::finish_pop(q, stalled, &popped),
            "%s: stalled dequeue failed", name);
  WCQ_CHECK(popped == 888, "%s: stalled dequeue got %llu want 888", name,
            (unsigned long long)popped);

  WCQ_CHECK(Access::helps(helper) >= 2,
            "%s: helps counter is %llu, want >= 2", name,
            (unsigned long long)Access::helps(helper));
  std::printf("  ok helping           %s\n", name);
}

// The help cadence, pinned: a handle checks one peer every help_delay
// own operations, the first check on its help_delay-th. The helper's
// own pops see an empty queue (the stalled push is not installed until
// someone drives it), so the request stays pending exactly until the
// helper's first check; help_delay(UINT_MAX) never checks.
//
// Also the regression for the help-round self-skip bug: when the
// round-robin cursor lands on the helper's own record, the round must
// advance to a real peer instead of being forfeited. The helper owns
// slot 0, so its first check (cursor 0) hits itself; before the fix
// that returned without helping and — with exactly one other thread —
// every other round was wasted the same way.
template <bool Portable>
void test_help_round_not_wasted_on_self(const char* name,
                                        unsigned help_delay) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  Queue q(wcq::options{}.order(4).max_threads(4).help_delay(help_delay));
  // Slot 0 is the helper (its cursor 0 lands on itself); slot 1 is the
  // peer needing help.
  auto helper = wcq::test::backend_handle(q);
  auto stalled = wcq::test::backend_handle(q);

  WCQ_CHECK(Access::publish_stalled_push(q, stalled, 321),
            "%s: fresh queue had no free index", name);
  const bool never = help_delay == UINT_MAX;
  const unsigned own_ops = never ? 1000 : help_delay;
  std::uint64_t v = 0;
  bool got321 = false;
  for (unsigned op = 1; op <= own_ops; ++op) {
    WCQ_CHECK(!Access::done_ok(q, stalled),
              "%s help_delay %u: peer helped before own op %u", name,
              help_delay, op);
    // The help lands before the pop itself, so the pop that helps may
    // already consume the helped value; no earlier pop may.
    got321 = q.try_pop(&v, helper);
    WCQ_CHECK(!got321 || (!never && op == own_ops && v == 321),
              "%s help_delay %u: own op %u popped %llu", name, help_delay,
              op, (unsigned long long)v);
  }
  WCQ_CHECK(Access::done_ok(q, stalled) == !never,
            "%s help_delay %u: after %u own ops the request is %s", name,
            help_delay, own_ops, never ? "done" : "still pending");
  WCQ_CHECK(Access::helps(helper) == (never ? 0u : 1u),
            "%s help_delay %u: helps counter is %llu", name, help_delay,
            (unsigned long long)Access::helps(helper));
  WCQ_CHECK(Access::finish_push(q, stalled), "%s: stalled push failed",
            name);
  if (!got321) {
    WCQ_CHECK(q.try_pop(&v, helper) && v == 321,
              "%s help_delay %u: helped value lost", name, help_delay);
  }
  std::printf("  ok helping_cadence   %s (help_delay %u)\n", name,
              help_delay);
}

}  // namespace

int main() {
  test_helper_completes_stalled_ops<false>("wcq");
  test_helper_completes_stalled_ops<true>("wcq-portable");
  for (const unsigned help_delay : {1u, 3u, UINT_MAX}) {
    test_help_round_not_wasted_on_self<false>("wcq", help_delay);
    test_help_round_not_wasted_on_self<true>("wcq-portable", help_delay);
  }
  return 0;
}
