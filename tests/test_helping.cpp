// Deterministic coverage for wCQ's helper-completion path: the owner
// publishes a ring request and then "stalls" (never drives it, via the
// WcqTestAccess backdoor); a peer doing its own operations must pick
// the request up through help_threads and finalize it through the
// note protocol. On real schedules this window is nanoseconds wide, so
// timing alone cannot exercise it — this is the wait-freedom scenario
// made reproducible. Also pinned here: the help cadence counts the
// operations that reach a ring, a batch call being one and a pop that
// the threshold answers empty none, stats() counts batch values, and
// counts a value slow when either stage of its push or pop went through
// a published request; and a stale helper — one that read a request's
// ctl word, then stepped it after the owner had moved on to its next
// request — never moves that next request's dequeue scan.
#include <climits>
#include <cstddef>
#include <optional>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/queue.hpp"
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
  // and published the fq-enqueue request; the helper's own pushes must
  // complete it, after which the value is really queued. (Its pops of
  // the empty queue would not: the threshold answers them before the
  // help check.) The help lands before each push's own ring access, so
  // 777 is queued ahead of every value the helper pushed.
  WCQ_CHECK(Access::publish_stalled_push(q, stalled, 777),
            "%s: fresh queue had no free index", name);
  std::uint64_t pushed = 0;
  while (!Access::done_ok(q, stalled)) {
    WCQ_CHECK(pushed < 8, "%s: helper never completed the enqueue", name);
    WCQ_CHECK(q.try_push(1000 + pushed, helper),
              "%s: helper push refused", name);
    ++pushed;
  }
  WCQ_CHECK(Access::finish_push(q, stalled), "%s: stalled enqueue failed",
            name);
  std::uint64_t v = 0;
  WCQ_CHECK(q.try_pop(&v, helper) && v == 777,
            "%s: helped enqueue value lost (got %llu)", name,
            (unsigned long long)v);
  for (std::uint64_t i = 0; i < pushed; ++i) {
    WCQ_CHECK(q.try_pop(&v, helper) && v == 1000 + i,
              "%s: helper value %llu popped as %llu", name,
              (unsigned long long)(1000 + i), (unsigned long long)v);
  }

  // --- stalled dequeue: put one value in, publish the request, and
  // drive the helper with enqueue/dequeue churn until it finalizes.
  WCQ_CHECK(q.try_push(888, helper), "%s: seed enqueue refused", name);
  Access::publish_stalled_pop(q, stalled);
  int spins = 0;
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

// How the helper's own operations reach a ring in the cadence case.
enum class Drive {
  push,          // try_push of a distinct value
  push_n,        // try_push_n of 1-4 distinct values
  queue_push_n,  // push_n through wcq::queue, which hands it one burst
  pop,           // try_pop of the empty queue, its threshold armed
  pop_n,         // try_pop_n of the empty queue, its threshold armed
};

const char* drive_name(Drive d) {
  switch (d) {
    case Drive::push: return "push";
    case Drive::push_n: return "push_n";
    case Drive::queue_push_n: return "queue_push_n";
    case Drive::pop: return "pop";
    case Drive::pop_n: return "pop_n";
  }
  return "?";
}

// The help cadence, pinned: a handle checks one peer every help_delay
// own operations that reach a ring, the first check on its
// help_delay-th. The stalled push is not installed until someone drives
// it, so the request stays pending exactly until the helper's first
// check; help_delay(UINT_MAX) never checks. Before it stalls, the peer
// pushes and pops one value: that arms fq's threshold, so the helper's
// pops of the empty queue pass try_pop's spent-threshold exit and reach
// the ring after the help check. Only the first takes a ticket, which
// leaves the threshold one below armed; fq answers the rest from Tail
// <= Head (ScqRingT::dequeue_idx), also after the check. A batch call
// is one own operation, however many values it moves: an empty
// try_pop_n whose burst yields nothing falls back to the single pop,
// which must not check a peer a second time, and a try_push_n of up to
// 4 values must not count its values, also when wcq::queue's try_push_n
// makes the call. The help lands before the operation's own ring access; the
// final drain pins where 321 landed among the helper's values.
//
// Also the regression for the help-round self-skip bug: when the
// round-robin cursor lands on the helper's own record, the round must
// advance to a real peer instead of being forfeited. The helper owns
// slot 0, so its first check (cursor 0) hits itself; before the fix
// that returned without helping and — with exactly one other thread —
// every other round was wasted the same way.
template <bool Portable>
void test_help_cadence(const char* name, unsigned help_delay, Drive drive) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  using Facade = wcq::queue<std::uint64_t, Queue>;
  Facade facade(
      wcq::options{}.order(12).max_threads(4).help_delay(help_delay));
  Queue& q = facade.backend();
  // Slot 0 is the helper (its cursor 0 lands on itself), registered
  // through the facade for the queue_push_n drive; slot 1 is the peer
  // needing help.
  std::optional<typename Facade::handle> facade_helper;
  std::optional<typename Queue::Handle> helper;
  if (drive == Drive::queue_push_n) {
    facade_helper = facade.get_handle();
  } else {
    helper = wcq::test::backend_handle(q);
  }
  auto stalled = wcq::test::backend_handle(q);
  const char* how = drive_name(drive);

  std::uint64_t v = 0;
  WCQ_CHECK(q.try_push(1, stalled) && q.try_pop(&v, stalled) && v == 1,
            "%s: arming push and pop failed", name);
  WCQ_CHECK(Access::publish_stalled_push(q, stalled, 321),
            "%s: fresh queue had no free index", name);
  const bool never = help_delay == UINT_MAX;
  const unsigned own_ops = never ? 1000 : help_delay;
  std::vector<std::uint64_t> want;  // the queue's values, in order
  for (unsigned op = 1; op <= own_ops; ++op) {
    WCQ_CHECK(!Access::done_ok(q, stalled),
              "%s help_delay %u %s: peer helped before own op %u", name,
              help_delay, how, op);
    const bool helps_now = !never && op == own_ops;
    if (helps_now) want.push_back(321);
    std::uint64_t vs[4] = {};
    std::size_t k = 0;
    switch (drive) {
      case Drive::push:
      case Drive::push_n:
      case Drive::queue_push_n:
        k = drive == Drive::push ? 1 : 1 + op % 4;
        for (std::size_t i = 0; i < k; ++i) vs[i] = 4 * op + i;
        WCQ_CHECK(drive == Drive::push     ? q.try_push(vs[0], *helper)
                  : drive == Drive::push_n ? q.try_push_n(vs, k, *helper) == k
                  : facade.try_push_n(vs, k, *facade_helper) == k,
                  "%s help_delay %u %s: own op %u refused", name,
                  help_delay, how, op);
        want.insert(want.end(), vs, vs + k);
        break;
      case Drive::pop:
      case Drive::pop_n:
        k = drive == Drive::pop ? (q.try_pop(vs, *helper) ? 1 : 0)
                                : q.try_pop_n(vs, 4, *helper);
        // Only the operation that helps finds a value, and it is 321.
        WCQ_CHECK(k == 0 || (helps_now && k == 1 && vs[0] == 321),
                  "%s help_delay %u %s: own op %u popped %zu values, "
                  "the first %llu",
                  name, help_delay, how, op, k, (unsigned long long)vs[0]);
        want.erase(want.begin(), want.begin() + k);
        break;
    }
  }
  WCQ_CHECK(Access::done_ok(q, stalled) == !never,
            "%s help_delay %u %s: after %u own ops the request is %s", name,
            help_delay, how, own_ops, never ? "done" : "still pending");
  // The helper is the only handle that ever helps.
  WCQ_CHECK(q.stats().helps == (never ? 0u : 1u),
            "%s help_delay %u %s: helps counter is %llu", name, help_delay,
            how, (unsigned long long)q.stats().helps);
  WCQ_CHECK(Access::finish_push(q, stalled), "%s: stalled push failed",
            name);
  if (never) want.push_back(321);
  for (const std::uint64_t w : want) {
    WCQ_CHECK(q.try_pop(&v, stalled) && v == w,
              "%s help_delay %u %s: drained %llu, want %llu", name,
              help_delay, how, (unsigned long long)v,
              (unsigned long long)w);
  }
  WCQ_CHECK(!q.try_pop(&v, stalled), "%s help_delay %u %s: extra value %llu",
            name, help_delay, how, (unsigned long long)v);
  std::printf("  ok helping_cadence   %s (help_delay %u, %s)\n", name,
              help_delay, how);
}

// The paper's order, pinned: Dequeue tests the threshold before
// help_threads, so a pop that the threshold answers empty neither helps
// nor counts toward help_delay. A stalled fq enqueue leaves fq's
// threshold spent until someone installs it. So with help_delay(1),
// 1000 empty try_pop and 1000 empty try_pop_n calls leave the request
// pending, with no help counted and 2000 fast dequeues; the helper's
// next push, an operation that reaches a ring, completes it first, so
// 321 is queued ahead of the pushed value.
template <bool Portable>
void test_empty_exit_before_help(const char* name) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  Queue q(wcq::options{}.order(4).max_threads(4).help_delay(1));
  auto helper = wcq::test::backend_handle(q);
  auto stalled = wcq::test::backend_handle(q);
  WCQ_CHECK(Access::publish_stalled_push(q, stalled, 321),
            "%s: fresh queue had no free index", name);
  const std::uint64_t before = q.stats().fast_dequeues;
  std::uint64_t vs[4] = {};
  for (int i = 0; i < 1000; ++i) {
    WCQ_CHECK(!q.try_pop(vs, helper), "%s: empty try_pop found a value",
              name);
    WCQ_CHECK(q.try_pop_n(vs, 4, helper) == 0,
              "%s: empty try_pop_n found a value", name);
  }
  WCQ_CHECK(!Access::done_ok(q, stalled),
            "%s: an empty pop helped the stalled push", name);
  WCQ_CHECK(Access::helps(helper) == 0, "%s: helps counter is %llu", name,
            (unsigned long long)Access::helps(helper));
  const std::uint64_t empties = q.stats().fast_dequeues - before;
  WCQ_CHECK(empties == 2000, "%s: %llu fast dequeues for 2000 empty pops",
            name, (unsigned long long)empties);
  WCQ_CHECK(q.try_push(5, helper), "%s: helper push refused", name);
  WCQ_CHECK(Access::done_ok(q, stalled) && Access::helps(helper) == 1,
            "%s: the push after the empty pops did not help", name);
  WCQ_CHECK(Access::finish_push(q, stalled), "%s: stalled push failed",
            name);
  std::uint64_t v = 0;
  WCQ_CHECK(q.try_pop(&v, helper) && v == 321,
            "%s: first pop got %llu, want 321", name, (unsigned long long)v);
  WCQ_CHECK(q.try_pop(&v, helper) && v == 5,
            "%s: second pop got %llu, want 5", name, (unsigned long long)v);
  std::printf("  ok empty_exit        %s\n", name);
}

// stats() counts values, not calls: after batch rounds in which no call
// is refused (no push_n short of its values, no pop_n on an empty
// queue), enqueues equal the values pushed and dequeues the values
// popped. Chunks of every size 1-64 and calls spanning two chunks.
template <bool Portable>
void test_batch_stats(const char* name, const wcq::options& opt) {
  using Queue = wcq::WcqQueueT<Portable>;
  Queue q(wcq::options{opt}.order(8).max_threads(2));
  auto h = wcq::test::backend_handle(q);
  std::uint64_t in[100];
  std::uint64_t out[100];
  for (std::uint64_t i = 0; i < 100; ++i) in[i] = i;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  for (std::size_t round = 0; round < 400; ++round) {
    const std::size_t n = 1 + round * 37 % 100;  // 1..100, cap 256
    WCQ_CHECK(q.try_push_n(in, n, h) == n, "%s: push_n(%zu) refused", name,
              n);
    pushed += n;
    for (std::size_t got = 0; got < n;) {
      const std::size_t k = q.try_pop_n(out + got, n - got, h);
      WCQ_CHECK(k > 0, "%s: pop_n found %zu values empty", name, n - got);
      for (std::size_t i = 0; i < k; ++i) {
        WCQ_CHECK(out[got + i] == got + i, "%s: pop_n value %llu want %zu",
                  name, (unsigned long long)out[got + i], got + i);
      }
      got += k;
      popped += k;
    }
  }
  const wcq::WcqStats st = q.stats();
  WCQ_CHECK(st.fast_enqueues + st.slow_enqueues == pushed &&
                st.fast_dequeues + st.slow_dequeues == popped,
            "%s: stats count %llu+%llu enqueues for %llu pushed, %llu+%llu "
            "dequeues for %llu popped",
            name, (unsigned long long)st.fast_enqueues,
            (unsigned long long)st.slow_enqueues, (unsigned long long)pushed,
            (unsigned long long)st.fast_dequeues,
            (unsigned long long)st.slow_dequeues, (unsigned long long)popped);
  std::printf("  ok batch_stats       %s (patience %u/%u)\n", name,
              opt.enqueue_patience(), opt.dequeue_patience());
}

// A helper reads a request's ctl word, then its scan position, then
// steps; the owner may have finished that request and published the
// next one in between. Here the owner pops one value through both
// ring stages, a helper holds the ctl word of the second (returning the
// index to aq), and the owner publishes its next pop: an fq dequeue
// scanning from fq's Head. The stale aq-enqueue step must leave that
// scan where it is: an enqueue scan advances past positions it cannot
// use, and a dequeue scan moved past Head would skip, for good, values
// queued behind it.
template <bool Portable>
void test_stale_step_keeps_to_its_kind(const char* name) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  Queue q(wcq::options{}.order(4).max_threads(4).help_delay(UINT_MAX));
  auto owner = wcq::test::backend_handle(q);
  auto other = wcq::test::backend_handle(q);
  WCQ_CHECK(q.try_push(1, other) && q.try_push(2, other),
            "%s: seed pushes refused", name);
  std::uint64_t idx = 0;
  (void)Access::ring_op(q, owner, /*fq=*/true, /*deq=*/true, 0, &idx);
  const std::uint64_t stale =
      Access::ring_op(q, owner, /*fq=*/false, /*deq=*/false, idx, nullptr);
  Access::publish_stalled_pop(q, owner);
  const std::uint64_t head = Access::head(q, /*fq=*/true);
  Access::step(q, owner, /*fq=*/false, stale);
  const std::uint64_t scan = Access::dequeue_scan(q, owner, /*fq=*/true);
  WCQ_CHECK(scan == head,
            "%s: a stale aq-enqueue step moved the fq dequeue scan from "
            "Head %llu to %llu",
            name, (unsigned long long)head, (unsigned long long)scan);
  std::uint64_t v = 0;
  WCQ_CHECK(Access::finish_pop(q, owner, &v) && v == 2,
            "%s: pop after the stale step got %llu, want 2", name,
            (unsigned long long)v);
  std::printf("  ok stale_step        %s\n", name);
}

// A value counts slow iff its push or pop published a ring request, at
// either stage. Here a pop's second stage (its index back to aq) and a
// push's (its index into fq) each miss their one enqueue attempt
// (enqueue patience 1): a dequeue request that ended DoneEmpty left its
// scan at the ring's next Tail position, and a helper replaying that
// request's ctl word advances the entry there without taking its
// ticket, so the next Tail ticket finds it unusable. The index then
// goes through a published request, and the operation counts slow.
template <bool Portable>
void test_stats_count_published_stage(const char* name) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  const wcq::options opt =
      wcq::options{}.order(2).max_threads(2).patience(1, 64).help_delay(
          UINT_MAX);
  {
    // aq: a full queue, whose aq dequeue request ends DoneEmpty.
    Queue q(opt);
    auto h = wcq::test::backend_handle(q);
    for (std::uint64_t v = 0; v < 4; ++v) {
      WCQ_CHECK(q.try_push(v, h), "%s: push %llu refused", name,
                (unsigned long long)v);
    }
    std::uint64_t idx = UINT64_MAX;
    const std::uint64_t stale =
        Access::ring_op(q, h, /*fq=*/false, /*deq=*/true, 0, &idx);
    WCQ_CHECK(idx == UINT64_MAX, "%s: a full queue's aq gave index %llu",
              name, (unsigned long long)idx);
    Access::step(q, h, /*fq=*/false, stale);
    const wcq::WcqStats before = q.stats();
    std::uint64_t v = 99;
    WCQ_CHECK(q.try_pop(&v, h) && v == 0, "%s: pop got %llu, want 0", name,
              (unsigned long long)v);
    const wcq::WcqStats after = q.stats();
    WCQ_CHECK(after.slow_dequeues == before.slow_dequeues + 1 &&
                  after.fast_dequeues == before.fast_dequeues,
              "%s: a pop whose aq stage was published counted %llu fast, "
              "%llu slow",
              name,
              (unsigned long long)(after.fast_dequeues - before.fast_dequeues),
              (unsigned long long)(after.slow_dequeues - before.slow_dequeues));
  }
  {
    // fq: armed by one push and pop, then an fq dequeue request that
    // ends DoneEmpty.
    Queue q(opt);
    auto h = wcq::test::backend_handle(q);
    std::uint64_t v = 0;
    WCQ_CHECK(q.try_push(7, h) && q.try_pop(&v, h) && v == 7,
              "%s: seed push and pop failed", name);
    std::uint64_t idx = UINT64_MAX;
    const std::uint64_t stale =
        Access::ring_op(q, h, /*fq=*/true, /*deq=*/true, 0, &idx);
    WCQ_CHECK(idx == UINT64_MAX, "%s: an empty queue's fq gave index %llu",
              name, (unsigned long long)idx);
    Access::step(q, h, /*fq=*/true, stale);
    const wcq::WcqStats before = q.stats();
    WCQ_CHECK(q.try_push(9, h), "%s: push refused", name);
    const wcq::WcqStats after = q.stats();
    WCQ_CHECK(after.slow_enqueues == before.slow_enqueues + 1 &&
                  after.fast_enqueues == before.fast_enqueues,
              "%s: a push whose fq stage was published counted %llu fast, "
              "%llu slow",
              name,
              (unsigned long long)(after.fast_enqueues - before.fast_enqueues),
              (unsigned long long)(after.slow_enqueues - before.slow_enqueues));
    WCQ_CHECK(q.try_pop(&v, h) && v == 9, "%s: pop got %llu, want 9", name,
              (unsigned long long)v);
  }
  std::printf("  ok stats_published   %s\n", name);
}

// Where fq's threshold stands when the stalled install commits.
enum class Budget {
  spent,      // a fresh queue: no enqueue has armed it
  one_below,  // armed by a push, then one fruitless ticket spent it by 1
};

// A slow-path install is published before its request can finish. The
// commit's CAS2 installs the value; arming the threshold and moving
// Tail past it come after. Here a helper stalls between the two
// (WcqTestAccess::commit_stalled), a second one finalizes the request
// (WcqTestAccess::help), and the owner returns. Its value must be
// poppable: on a spent threshold, an unarmed ring answers the empty
// exit; one below armed, the Tail <= Head exit would. Also the mirror
// on aq: a pop's index return, stalled the same way, must leave room
// for the next push (a false full otherwise).
template <bool Portable>
void test_install_published_before_done(const char* name, Budget budget) {
  using Access = wcq::WcqTestAccess<Portable>;
  using Queue = wcq::WcqQueueT<Portable>;
  const char* how = budget == Budget::spent ? "spent" : "one below armed";
  {
    Queue q(wcq::options{}.order(4).max_threads(4).help_delay(UINT_MAX));
    auto owner = wcq::test::backend_handle(q);
    auto reader = wcq::test::backend_handle(q);
    std::uint64_t v = 0;
    if (budget == Budget::one_below) {
      WCQ_CHECK(q.try_push(1, reader) && q.try_pop(&v, reader) && v == 1 &&
                    !q.try_pop(&v, reader),
                "%s: arming push, pop and empty pop failed", name);
    }
    WCQ_CHECK(Access::publish_stalled_push(q, owner, 321),
              "%s: fresh queue had no free index", name);
    WCQ_CHECK(Access::commit_stalled(q, owner),
              "%s (%s): the stalled commit's CAS2 failed", name, how);
    WCQ_CHECK(!Access::done_ok(q, owner) && Access::help(q, owner) &&
                  Access::done_ok(q, owner),
              "%s (%s): the helper did not finalize the push", name, how);
    WCQ_CHECK(Access::finish_push(q, owner), "%s (%s): stalled push failed",
              name, how);
    WCQ_CHECK(q.try_pop(&v, reader) && v == 321,
              "%s (%s): a finished push's 321 was not popped", name, how);
    WCQ_CHECK(!q.try_pop(&v, reader), "%s (%s): extra value %llu", name, how,
              (unsigned long long)v);
  }
  if (budget == Budget::one_below) {
    // aq: a full queue refuses one push, which spends aq's threshold by
    // one; a pop's index return then stalls after its commit.
    Queue q(wcq::options{}.order(4).max_threads(4).help_delay(UINT_MAX));
    auto owner = wcq::test::backend_handle(q);
    auto writer = wcq::test::backend_handle(q);
    const std::uint64_t cap = q.capacity();
    for (std::uint64_t i = 0; i < cap; ++i) {
      WCQ_CHECK(q.try_push(i, writer), "%s: push %llu refused", name,
                (unsigned long long)i);
    }
    WCQ_CHECK(!q.try_push(cap, writer), "%s: a full queue took a push", name);
    std::uint64_t v = cap;
    WCQ_CHECK(Access::publish_stalled_index_return(q, owner, &v) && v == 0,
              "%s: the stalled pop got %llu, want 0", name,
              (unsigned long long)v);
    WCQ_CHECK(Access::commit_stalled(q, owner),
              "%s (aq): the stalled commit's CAS2 failed", name);
    WCQ_CHECK(Access::help(q, owner) && Access::done_ok(q, owner) &&
                  Access::finish_push(q, owner),
              "%s (aq): the helper did not finalize the index return", name);
    WCQ_CHECK(q.try_push(cap, writer),
              "%s (aq): a finished pop's slot refused the next push", name);
    for (std::uint64_t i = 1; i <= cap; ++i) {
      WCQ_CHECK(q.try_pop(&v, writer) && v == i,
                "%s (aq): drained %llu, want %llu", name, (unsigned long long)v,
                (unsigned long long)i);
    }
  }
  std::printf("  ok install_published %s (%s)\n", name, how);
}

}  // namespace

int main() {
  test_helper_completes_stalled_ops<false>("wcq");
  test_helper_completes_stalled_ops<true>("wcq-portable");
  for (const unsigned help_delay : {1u, 3u, UINT_MAX}) {
    for (const Drive drive : {Drive::push, Drive::push_n, Drive::queue_push_n,
                              Drive::pop, Drive::pop_n}) {
      test_help_cadence<false>("wcq", help_delay, drive);
      test_help_cadence<true>("wcq-portable", help_delay, drive);
    }
  }
  test_empty_exit_before_help<false>("wcq");
  test_empty_exit_before_help<true>("wcq-portable");
  for (const auto& opt :
       {wcq::options{}, wcq::options{}.patience(1, 1).help_delay(1)}) {
    test_batch_stats<false>("wcq", opt);
    test_batch_stats<true>("wcq-portable", opt);
  }
  test_stale_step_keeps_to_its_kind<false>("wcq");
  test_stale_step_keeps_to_its_kind<true>("wcq-portable");
  test_stats_count_published_stage<false>("wcq");
  test_stats_count_published_stage<true>("wcq-portable");
  for (const Budget budget : {Budget::spent, Budget::one_below}) {
    test_install_published_before_done<false>("wcq", budget);
    test_install_published_before_done<true>("wcq-portable", budget);
  }
  return 0;
}
