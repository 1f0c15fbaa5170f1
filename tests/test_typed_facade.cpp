// Typed wcq::queue<T> facade coverage: inline slot_codec for small
// trivially copyable T (must be bit-exact and allocation-free), the
// boxed pointer-indirection codec for anything larger (no leaks on
// failed pushes or on teardown with values still queued; one slab per
// batch chunk, counted exactly, freed once however its values leave,
// leak-free when a copy throws; boxed MPMC through test_mpmc), the
// concept surface working over a non-default backend, and the one
// options refusal rule across the whole lineup.
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "boxed_batch_checks.hpp"
#include "queue_test_common.hpp"
#include "wcq/concepts.hpp"
#include "wcq/faa_queue.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq.hpp"
#include "wcq/sharded.hpp"

namespace {

using namespace wcq;

struct SmallPod {
  std::int32_t x;
  std::int16_t y;
};
static_assert(fits_in_slot_v<SmallPod>);
static_assert(!slot_codec<SmallPod>::kBoxed);
static_assert(fits_in_slot_v<std::uint64_t>);
static_assert(!fits_in_slot_v<std::string>);
static_assert(slot_codec<std::string>::kBoxed);

struct BigPod {
  std::uint64_t a;
  std::uint64_t b;
};
static_assert(slot_codec<BigPod>::kBoxed);

static_assert(concepts::Queue<queue<SmallPod>>);
static_assert(concepts::Queue<queue<std::string>>);
static_assert(concepts::Queue<queue<std::uint64_t, ScqQueue>>);

void test_inline_codec_roundtrip() {
  queue<SmallPod> q(options{}.order(6).max_threads(2));
  auto h = q.get_handle();
  // Inline codec stays inline: after construction, roundtrips must
  // never touch the allocator.
  const std::uint64_t allocs_baseline = mem::stats().total_allocs;
  for (int i = 0; i < 200; ++i) {
    WCQ_CHECK(q.try_push(SmallPod{i, static_cast<std::int16_t>(-i)}, h),
              "inline push %d refused", i);
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && v->x == i && v->y == -i, "inline roundtrip %d corrupted",
              i);
  }
  WCQ_CHECK(mem::stats().total_allocs == allocs_baseline,
            "inline codec allocated during roundtrips");
  std::printf("  ok typed_inline\n");
}

void test_boxed_codec_roundtrip() {
  queue<std::string> q(options{}.order(4).max_threads(2));
  auto h = q.get_handle();
  const std::string long_str(100, 'x');  // defeat SSO: heap-backed
  WCQ_CHECK(q.try_push(long_str + "1", h), "boxed push refused");
  WCQ_CHECK(q.try_push(long_str + "2", h), "boxed push refused");
  auto v1 = q.try_pop(h);
  auto v2 = q.try_pop(h);
  WCQ_CHECK(v1 && *v1 == long_str + "1", "boxed FIFO head corrupted");
  WCQ_CHECK(v2 && *v2 == long_str + "2", "boxed FIFO second corrupted");
  WCQ_CHECK(!q.try_pop(h).has_value(), "boxed queue should be empty");
  std::printf("  ok typed_boxed\n");
}

void test_boxed_no_leak_on_failed_push() {
  const std::uint64_t live_before = mem::stats().live_bytes;
  {
    queue<BigPod> q(options{}.order(2).max_threads(2));  // capacity 4
    auto h = q.get_handle();
    std::uint64_t pushed = 0;
    while (q.try_push(BigPod{pushed, pushed}, h)) ++pushed;
    WCQ_CHECK(pushed == q.capacity(), "bounded facade accepted %llu of %llu",
              (unsigned long long)pushed, (unsigned long long)q.capacity());
    const std::uint64_t live_full = mem::stats().live_bytes;
    // Refused pushes must reclaim their box immediately.
    for (int i = 0; i < 100; ++i) {
      WCQ_CHECK(!q.try_push(BigPod{9, 9}, h), "push into full facade");
    }
    WCQ_CHECK(mem::stats().live_bytes == live_full,
              "failed boxed pushes leaked %llu bytes",
              (unsigned long long)(mem::stats().live_bytes - live_full));
    for (std::uint64_t i = 0; i < pushed; ++i) {
      const auto v = q.try_pop(h);
      WCQ_CHECK(v && v->a == i, "boxed drain %llu corrupted",
                (unsigned long long)i);
    }
  }
  WCQ_CHECK(mem::stats().live_bytes == live_before,
            "boxed facade leaked %llu bytes across its lifetime",
            (unsigned long long)(mem::stats().live_bytes - live_before));
  std::printf("  ok typed_boxed_full\n");
}

void test_boxed_teardown_drains() {
  const std::uint64_t live_before = mem::stats().live_bytes;
  {
    queue<std::string> q(options{}.order(4).max_threads(2));
    auto h = q.get_handle();
    for (int i = 0; i < 10; ++i) {
      WCQ_CHECK(q.try_push(std::string(64, 'a' + i), h),
                "teardown seed push %d refused", i);
    }
    // Queue destroyed with 10 boxed strings still inside.
  }
  WCQ_CHECK(mem::stats().live_bytes == live_before,
            "teardown leaked %llu bytes of queued boxed values",
            (unsigned long long)(mem::stats().live_bytes - live_before));
  std::printf("  ok typed_teardown\n");
}

// FAA reserves the top two slot patterns as protocol sentinels; an
// inline-encoded value colliding with them must be refused (push
// returns false), never silently lost or able to corrupt the cell.
void test_faa_reserved_values_refused() {
  queue<std::int64_t, FaaQueue> q(options{});
  auto h = q.get_handle();
  WCQ_CHECK(!q.try_push(std::int64_t{-1}, h),
            "FAA accepted its EMPTY sentinel bit pattern");
  WCQ_CHECK(!q.try_push(std::int64_t{-2}, h),
            "FAA accepted its TAKEN sentinel bit pattern");
  WCQ_CHECK(!q.try_pop(h).has_value(),
            "refused sentinel push left a phantom element");
  WCQ_CHECK(q.try_push(std::int64_t{-3}, h),
            "first storable value refused");
  const auto v = q.try_pop(h);
  WCQ_CHECK(v && *v == -3, "storable negative value corrupted");
  // Boxed codecs are the escape hatch: pointers never collide with
  // the sentinels, so the full value space round-trips.
  queue<BigPod, FaaQueue> bq(options{});
  auto bh = bq.get_handle();
  const std::uint64_t all_ones = ~std::uint64_t{0};
  WCQ_CHECK(bq.try_push(BigPod{all_ones, all_ones}, bh),
            "boxed push over FAA refused");
  const auto bv = bq.try_pop(bh);
  WCQ_CHECK(bv && bv->a == all_ones && bv->b == all_ones,
            "boxed all-ones value corrupted over FAA");
  std::printf("  ok typed_faa_reserved\n");
}

void test_non_default_backend() {
  queue<SmallPod, ScqQueue> q(options{}.order(6));
  auto h = q.get_handle();
  for (int i = 0; i < 50; ++i) {
    WCQ_CHECK(q.try_push(SmallPod{i, 7}, h), "scq-backed push %d refused",
              i);
  }
  for (int i = 0; i < 50; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && v->x == i, "scq-backed FIFO violated at %d", i);
  }
  std::printf("  ok typed_scq_backend\n");
}

// The one refusal rule: every lineup backend, and sharded, refuses
// each out-of-range knob with std::invalid_argument — whether or not
// it reads that knob — and never clamps. `max_order` is the backend's
// order ceiling (options::kNoLimit: it reads no order). A plain
// backend's message starts with "<who>: ", the name its constructor
// hands options::validate; `who` is null for sharded, whose order
// refusal comes from its shard backend.
template <typename Q>
void test_refusals(const char* name, unsigned max_order, const char* who) {
  std::vector<std::pair<const char*, options>> rows = {
      {"enqueue_patience 0", options{}.enqueue_patience(0)},
      {"dequeue_patience 0", options{}.dequeue_patience(0)},
      {"help_delay 0", options{}.help_delay(0)},
      {"max_threads 0", options{}.max_threads(0)},
      {"shards 3", options{}.shards(3)},
  };
  if (max_order != options::kNoLimit) {
    // One shard, so sharded's per-shard order is the whole order.
    rows.push_back(
        {"order past ceiling", options{}.shards(1).order(max_order + 1)});
  }
  for (const auto& [knob, opt] : rows) {
    bool refused = false;
    std::string msg;
    try {
      Q q(opt);
    } catch (const std::invalid_argument& e) {
      refused = true;
      msg = e.what();
    }
    WCQ_CHECK(refused, "%s accepted %s", name, knob);
    if (who != nullptr) {
      const std::string prefix = std::string(who) + ": ";
      WCQ_CHECK(msg.rfind(prefix, 0) == 0,
                "%s refused %s as \"%s\", not under \"%s\"", name, knob,
                msg.c_str(), prefix.c_str());
    }
  }
  // Helping off (the bench suite's wcq_nohelp rung) is in range.
  Q ok(options{}.order(6).shards(1).help_delay(UINT_MAX));
  std::printf("  ok refusals          %s (%zu rows)\n", name, rows.size());
}

// Boxed values through the one MPMC checker, in bursts, with more
// consumers than producers: chunks split across consumers, so a slab's
// references are given back on several threads. Over sharded only the
// ledger applies (per-shard contract). Every slab is freed by the end.
template <typename Q>
void test_boxed_mpmc(const char* name, const options& opt,
                     bool linearizable) {
  const std::uint64_t live_before = mem::stats().live_bytes;
  test::MpmcRun<Q> run;
  run.opt = opt;
  run.bursts = true;
  run.linearizable = linearizable;
  test::test_mpmc<Q>(name, 2, 4, test::env_ops(100000), run);
  WCQ_CHECK(mem::stats().live_bytes == live_before,
            "%s: %lld bytes live after the run", name,
            (long long)(mem::stats().live_bytes - live_before));
}

}  // namespace

int main() {
  test_inline_codec_roundtrip();
  test_boxed_codec_roundtrip();
  test_boxed_no_leak_on_failed_push();
  test_boxed_teardown_drains();
  test::test_batch_box_accounting<queue<test::Msg40>,
                                  queue<test::PerValueMsg40>>("queue",
                                                              options{});
  test::test_batch_refused_chunk<queue<test::Msg40>>("queue", options{});
  test::test_batch_pop_mixed_boxes<queue<test::Msg40>>("queue", options{});
  test::test_batch_slab_two_handles<queue<test::Msg40>>("queue", options{});
  test::test_batch_throwing_copy<queue<test::ThrowingMsg>>("queue",
                                                           options{});
  test::test_batch_throwing_copy<queue<test::ThrowingMsg, FaaQueue>>(
      "queue<faa>", options{});
  test_boxed_mpmc<queue<test::BoxedTag>>("boxed wcq", options{}.order(8),
                                         true);
  test_boxed_mpmc<sharded<test::BoxedTag>>(
      "boxed sharded", options{}.order(8).shards(2), false);
  test_faa_reserved_values_refused();
  test_non_default_backend();
  test_refusals<harness::WcqAdapter>("wcq", detail::kMaxNoteOrder, "wcq");
  test_refusals<harness::WcqPortableAdapter>("wcq-portable",
                                             detail::kMaxNoteOrder, "wcq");
  test_refusals<harness::ScqAdapter>("scq", ring::kMaxOrder, "scq");
  test_refusals<harness::NcqAdapter>("ncq", ring::kMaxOrder, "ncq");
  test_refusals<harness::CcqAdapter>("ccq", ring::kMaxOrder, "ccq");
  test_refusals<harness::LscqAdapter>("lscq", LscqQueue::kMaxOrder, "lscq");
  test_refusals<harness::LcrqAdapter>("lcrq", LcrqQueue::kMaxOrder, "lcrq");
  test_refusals<harness::FaaAdapter>("faa", options::kNoLimit, "faa");
  test_refusals<harness::MsqAdapter>("msq", options::kNoLimit, "msq");
  test_refusals<sharded<std::uint64_t>>("sharded", detail::kMaxNoteOrder,
                                        nullptr);
  return 0;
}
