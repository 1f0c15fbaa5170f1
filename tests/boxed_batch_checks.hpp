// Batch checks for boxed payloads, shared by test_typed_facade
// (wcq::queue) and test_sharded (wcq::sharded, the same facade over a
// shard_set): a chunk's boxes are accounted as one mem request but
// must leave mem's counters exactly where per-value boxing leaves them,
// and a copy that throws mid-chunk must leak no box.
#pragma once

#include <array>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"

namespace wcq::test {

// 40-byte payloads, too large for a slot. Msg40 boxes through the
// default slot_codec and its _n forms; PerValueMsg40 through a user
// specialization with only the per-value forms (below).
struct Msg40 {
  std::array<std::uint64_t, 5> v{};
};
struct PerValueMsg40 {
  std::array<std::uint64_t, 5> v{};
};

// Copies count down from copies_left, and the copy that finds it at
// zero throws; -1 never throws. Moves never throw.
struct ThrowingMsg {
  static inline int copies_left = -1;
  std::array<std::uint64_t, 5> v{};

  ThrowingMsg() = default;
  explicit ThrowingMsg(std::uint64_t x) { v.fill(x); }
  ThrowingMsg(const ThrowingMsg& o) : v(o.v) {
    if (copies_left == 0) throw std::runtime_error("armed copy");
    if (copies_left > 0) --copies_left;
  }
  ThrowingMsg(ThrowingMsg&&) noexcept = default;
  ThrowingMsg& operator=(const ThrowingMsg&) = default;
  ThrowingMsg& operator=(ThrowingMsg&&) noexcept = default;
};

}  // namespace wcq::test

namespace wcq {

// A user codec written before the _n forms existed: the facades must
// batch it one value at a time.
template <>
struct slot_codec<test::PerValueMsg40> {
  static constexpr bool kBoxed = true;
  using M = test::PerValueMsg40;

  static std::uint64_t encode(const M& v) {
    return reinterpret_cast<std::uint64_t>(
        new (mem::alloc(sizeof(M), alignof(M))) M(v));
  }
  static M decode(std::uint64_t slot) {
    const M v = *reinterpret_cast<M*>(slot);
    drop(slot);
    return v;
  }
  static void drop(std::uint64_t slot) {
    M* p = reinterpret_cast<M*>(slot);
    p->~M();
    mem::free(p, sizeof(M), alignof(M));
  }
};

}  // namespace wcq

namespace wcq::test {

// One batch round on a fresh facade of capacity 64 over `opt`: 40
// pushed, then 60 offered of which 24 fit (a refused tail of 36),
// everything popped back in two batches and checked, then 10 pushed
// and left for teardown. Returns mem's counters for the round, from
// a reset with nothing live.
template <typename Q>
mem::Stats batch_box_round(const char* name, const options& opt) {
  using M = typename Q::value_type;
  WCQ_CHECK(mem::stats().live_bytes == 0, "%s: mem not idle before reset",
            name);
  mem::reset();
  {
    Q q(options{opt}.order(6).max_threads(2));
    auto h = q.get_handle();
    std::vector<M> in(110);
    for (std::uint64_t i = 0; i < in.size(); ++i) in[i].v.fill(i);
    WCQ_CHECK(q.try_push_n(in.data(), 40, h) == 40, "%s: push_n 40", name);
    WCQ_CHECK(q.try_push_n(in.data() + 40, 60, h) == 24,
              "%s: push_n into 24 free slots", name);
    std::vector<M> out(64);
    WCQ_CHECK(q.try_pop_n(out.data(), 30, h) == 30, "%s: pop_n 30", name);
    WCQ_CHECK(q.try_pop_n(out.data() + 30, 64, h) == 34, "%s: pop_n rest",
              name);
    std::vector<bool> seen(64, false);
    for (const M& m : out) {
      WCQ_CHECK(m.v[0] < 64 && !seen[m.v[0]] && m.v[4] == m.v[0],
                "%s: batch value %llu lost, duplicated or torn", name,
                (unsigned long long)m.v[0]);
      seen[m.v[0]] = true;
    }
    WCQ_CHECK(q.try_push_n(in.data() + 100, 10, h) == 10, "%s: push_n 10",
              name);
  }
  return mem::stats();
}

// The _n path against the per-value path for the same values, counter
// by counter, and the number of 40-byte boxes the round makes: 110,
// since the facade boxes a whole chunk before pushing it (the refused
// tail of 36 included).
template <typename Q, typename QPerValue>
void test_batch_box_accounting(const char* name, const options& opt) {
  constexpr std::uint64_t boxes = 110;
  const mem::Stats a = batch_box_round<Q>(name, opt);
  const mem::Stats b = batch_box_round<QPerValue>(name, opt);
  WCQ_CHECK(a.total_allocs == b.total_allocs,
            "%s: %llu allocations batched vs %llu per value", name,
            (unsigned long long)a.total_allocs,
            (unsigned long long)b.total_allocs);
  WCQ_CHECK(a.total_bytes == b.total_bytes,
            "%s: %llu bytes batched vs %llu per value", name,
            (unsigned long long)a.total_bytes,
            (unsigned long long)b.total_bytes);
  WCQ_CHECK(a.live_bytes == 0 && b.live_bytes == 0,
            "%s: live bytes %llu batched, %llu per value after teardown",
            name, (unsigned long long)a.live_bytes,
            (unsigned long long)b.live_bytes);
  WCQ_CHECK(a.peak_bytes == b.peak_bytes,
            "%s: peak %llu batched vs %llu per value", name,
            (unsigned long long)a.peak_bytes,
            (unsigned long long)b.peak_bytes);
  // The facade's own allocations are the same on both sides.
  mem::reset();
  {
    Q q(options{opt}.order(6).max_threads(2));
    auto h = q.get_handle();
  }
  const mem::Stats base = mem::stats();
  WCQ_CHECK(a.total_allocs - base.total_allocs == boxes &&
                a.total_bytes - base.total_bytes == boxes * sizeof(Msg40),
            "%s: %llu boxes of %llu bytes, want %llu of 40", name,
            (unsigned long long)(a.total_allocs - base.total_allocs),
            (unsigned long long)(a.total_bytes - base.total_bytes),
            (unsigned long long)boxes);
  std::printf("  ok batch_box_accounting %s (%llu allocs, peak %llu B)\n",
              name, (unsigned long long)a.total_allocs,
              (unsigned long long)a.peak_bytes);
}

// A copy that throws inside a batch push: once in the first chunk (its
// 5th copy), once in the second chunk of a 100-value push (again its
// 5th copy, after a whole chunk of 64). The facade boxes a whole chunk
// before pushing it, so a throw pushes none of its chunk: 0 values
// land, then chunk 1's 64. No box may leak: live bytes rise by exactly
// the landed values' boxes, those values pop back intact, and teardown
// returns to the baseline.
template <typename Q>
void test_batch_throwing_copy(const char* name, const options& opt) {
  const std::uint64_t baseline = mem::stats().live_bytes;
  {
    Q q(options{opt}.order(8).max_threads(2));
    auto h = q.get_handle();
    std::vector<ThrowingMsg> in;
    for (std::uint64_t i = 0; i < 100; ++i) in.emplace_back(i);
    std::vector<ThrowingMsg> out(100);
    // Pushes in[0..n) with copy number copies + 1 armed to throw, then
    // drains the queue; returns how many values had landed.
    const auto throw_then_drain = [&](int copies, std::size_t n) {
      const std::uint64_t before = mem::stats().live_bytes;
      ThrowingMsg::copies_left = copies;
      bool threw = false;
      try {
        q.try_push_n(in.data(), n, h);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      ThrowingMsg::copies_left = -1;
      WCQ_CHECK(threw, "%s: the armed copy did not throw", name);
      const std::uint64_t after = mem::stats().live_bytes;
      std::size_t got = 0;
      while (std::size_t k =
                 q.try_pop_n(out.data() + got, out.size() - got, h)) {
        got += k;
      }
      WCQ_CHECK(after - before == got * sizeof(ThrowingMsg),
                "%s: a copy throwing after %d copies left %lld live bytes "
                "for %zu landed values",
                name, copies, (long long)(after - before), got);
      std::vector<bool> seen(got, false);
      for (std::size_t i = 0; i < got; ++i) {
        const ThrowingMsg& m = out[i];
        WCQ_CHECK(m.v[0] < got && !seen[m.v[0]] && m.v[4] == m.v[0],
                  "%s: value %llu lost, duplicated or torn", name,
                  (unsigned long long)m.v[0]);
        seen[m.v[0]] = true;
      }
      return got;
    };
    const std::size_t in_chunk1 = throw_then_drain(4, 10);
    const std::size_t in_chunk2 = throw_then_drain(64 + 4, 100);
    WCQ_CHECK(in_chunk1 == 0 && in_chunk2 == 64,
              "%s: %zu then %zu values landed, want 0 then 64", name,
              in_chunk1, in_chunk2);
  }
  WCQ_CHECK(mem::stats().live_bytes == baseline,
            "%s: %lld bytes still live after teardown", name,
            (long long)(mem::stats().live_bytes - baseline));
  std::printf("  ok batch_throwing_copy  %s\n", name);
}

}  // namespace wcq::test
