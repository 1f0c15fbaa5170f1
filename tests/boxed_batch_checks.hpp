// Batch checks for boxed payloads, shared by test_typed_facade
// (wcq::queue) and test_sharded (wcq::sharded, the same facade over a
// shard_set): a chunk is boxed into one slab, one allocation, freed
// exactly once when its last value leaves or is dropped, a chunk
// refused whole costs one allocation, and a copy that throws mid-chunk
// must leak no box.
#pragma once

#include <array>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <thread>
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

// The default boxed codec's bytes for a value of at most 8-byte
// alignment (queue.hpp): a cell is {slab pointer, value}; a slab of n
// cells is an 8-byte header {refs, cells} and the cells; a value boxed
// alone is one cell.
template <typename M>
constexpr std::uint64_t cell_bytes() {
  static_assert(alignof(M) <= 8 && sizeof(M) % 8 == 0);
  return 8 + sizeof(M);
}
template <typename M>
constexpr std::uint64_t slab_bytes(std::uint64_t n) {
  return 8 + n * cell_bytes<M>();
}

// mem's counters around one batch round, from a reset with nothing
// live: idle with the facade and a handle built, queued while both
// pushed chunks are partly popped, end after teardown.
struct BoxRound {
  std::uint64_t idle = 0;
  std::uint64_t queued = 0;
  mem::Stats end;
};

// One batch round on a fresh facade of capacity 64 over `opt`: 40
// pushed, then 60 offered of which 24 fit (a refused tail of 36),
// everything popped back in two batches of 30 and 34 and checked, then
// 10 pushed and left for teardown.
template <typename Q>
BoxRound batch_box_round(const char* name, const options& opt) {
  using M = typename Q::value_type;
  WCQ_CHECK(mem::stats().live_bytes == 0, "%s: mem not idle before reset",
            name);
  mem::reset();
  BoxRound r;
  {
    Q q(options{opt}.order(6).max_threads(2));
    auto h = q.get_handle();
    r.idle = mem::stats().live_bytes;
    std::vector<M> in(110);
    for (std::uint64_t i = 0; i < in.size(); ++i) in[i].v.fill(i);
    WCQ_CHECK(q.try_push_n(in.data(), 40, h) == 40, "%s: push_n 40", name);
    WCQ_CHECK(q.try_push_n(in.data() + 40, 60, h) == 24,
              "%s: push_n into 24 free slots", name);
    std::vector<M> out(64);
    WCQ_CHECK(q.try_pop_n(out.data(), 30, h) == 30, "%s: pop_n 30", name);
    r.queued = mem::stats().live_bytes;
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
  r.end = mem::stats();
  return r;
}

// The round's boxes, counted exactly. The default codec boxes each
// chunk into one slab, so the round makes 3 allocations: 40 values,
// 60 (36 of them refused and dropped, the slab kept by the 24 queued)
// and 10. Both of the first two slabs stay allocated whole from the
// second push until the second pop, so they are live after 30 pops
// and they make the peak. The per-value codec makes 110 boxes of 40 B,
// since the facade boxes a whole chunk before pushing it; its peak is
// the 100 boxes live before the refused tail is dropped.
template <typename Q, typename QPerValue>
void test_batch_box_accounting(const char* name, const options& opt) {
  // The facade's own allocations, the same on both sides.
  mem::reset();
  {
    Q q(options{opt}.order(6).max_threads(2));
    auto h = q.get_handle();
  }
  const mem::Stats base = mem::stats();
  const BoxRound a = batch_box_round<Q>(name, opt);
  const BoxRound b = batch_box_round<QPerValue>(name, opt);
  const auto count = [&](const BoxRound& r) {
    return (unsigned long long)(r.end.total_allocs - base.total_allocs);
  };
  const auto bytes = [&](const BoxRound& r) {
    return (unsigned long long)(r.end.total_bytes - base.total_bytes);
  };
  const auto over_idle = [](const BoxRound& r, std::uint64_t live) {
    return (unsigned long long)(live - r.idle);
  };
  const std::uint64_t two = slab_bytes<Msg40>(40) + slab_bytes<Msg40>(60);
  const std::uint64_t slabs = two + slab_bytes<Msg40>(10);
  WCQ_CHECK(count(a) == 3 && bytes(a) == slabs,
            "%s: %llu boxes of %llu bytes in all, want 3 slabs of %llu",
            name, count(a), bytes(a), (unsigned long long)slabs);
  WCQ_CHECK(over_idle(a, a.queued) == two &&
                over_idle(a, a.end.peak_bytes) == two,
            "%s: %llu bytes live with two slabs partly popped and a peak "
            "of %llu, want %llu",
            name, over_idle(a, a.queued), over_idle(a, a.end.peak_bytes),
            (unsigned long long)two);
  WCQ_CHECK(count(b) == 110 && bytes(b) == 110 * sizeof(Msg40),
            "%s: %llu per-value boxes of %llu bytes in all, want 110 of 40",
            name, count(b), bytes(b));
  WCQ_CHECK(over_idle(b, b.queued) == 34 * sizeof(Msg40) &&
                over_idle(b, b.end.peak_bytes) == 100 * sizeof(Msg40),
            "%s: %llu bytes live with 34 per-value boxes queued and a peak "
            "of %llu",
            name, over_idle(b, b.queued), over_idle(b, b.end.peak_bytes));
  WCQ_CHECK(a.end.live_bytes == 0 && b.end.live_bytes == 0,
            "%s: live bytes %llu batched, %llu per value after teardown",
            name, (unsigned long long)a.end.live_bytes,
            (unsigned long long)b.end.live_bytes);
  std::printf("  ok batch_box_accounting %s (%llu slabs, peak %llu B)\n",
              name, count(a), (unsigned long long)a.end.peak_bytes);
}

// A chunk refused whole by a full facade: one allocation (its slab),
// freed before try_push_n returns, so live bytes stay where they were.
template <typename Q>
void test_batch_refused_chunk(const char* name, const options& opt) {
  using M = typename Q::value_type;
  Q q(options{opt}.order(6).max_threads(2));
  auto h = q.get_handle();
  std::vector<M> in(64);
  WCQ_CHECK(q.try_push_n(in.data(), 64, h) == 64, "%s: fill", name);
  const mem::Stats before = mem::stats();
  WCQ_CHECK(q.try_push_n(in.data(), 64, h) == 0,
            "%s: a full facade took a chunk", name);
  const mem::Stats after = mem::stats();
  const std::uint64_t allocs = after.total_allocs - before.total_allocs;
  WCQ_CHECK(allocs == 1 && after.live_bytes == before.live_bytes,
            "%s: a refused chunk made %llu allocations and left %lld bytes",
            name, (unsigned long long)allocs,
            (long long)(after.live_bytes - before.live_bytes));
  std::printf("  ok batch_refused     %s (1 allocation)\n", name);
}

// One try_pop_n that returns values boxed alone by try_push and boxed
// in slabs by try_push_n, interleaved: 3 in a slab, 1 alone, 4 in a
// slab, 1 alone. Each box is given back exactly once.
template <typename Q>
void test_batch_pop_mixed_boxes(const char* name, const options& opt) {
  using M = typename Q::value_type;
  Q q(options{opt}.order(6).max_threads(2));
  auto h = q.get_handle();
  const mem::Stats before = mem::stats();
  std::vector<M> in(9);
  for (std::uint64_t i = 0; i < in.size(); ++i) in[i].v.fill(i);
  WCQ_CHECK(q.try_push_n(in.data(), 3, h) == 3 && q.try_push(in[3], h) &&
                q.try_push_n(in.data() + 4, 4, h) == 4 && q.try_push(in[8], h),
            "%s: pushes refused", name);
  const mem::Stats pushed = mem::stats();
  const std::uint64_t allocs = pushed.total_allocs - before.total_allocs;
  const std::uint64_t live = pushed.live_bytes - before.live_bytes;
  const std::uint64_t boxes = slab_bytes<M>(3) + slab_bytes<M>(4) +
                              2 * cell_bytes<M>();
  WCQ_CHECK(allocs == 4 && live == boxes,
            "%s: %llu allocations, %llu live bytes for 2 slabs and 2 cells",
            name, (unsigned long long)allocs, (unsigned long long)live);
  std::vector<M> out(16);
  WCQ_CHECK(q.try_pop_n(out.data(), out.size(), h) == 9, "%s: pop_n", name);
  std::vector<bool> seen(9, false);
  for (std::size_t i = 0; i < 9; ++i) {
    const M& m = out[i];
    WCQ_CHECK(m.v[0] < 9 && !seen[m.v[0]] && m.v[4] == m.v[0],
              "%s: value %llu lost, duplicated or torn", name,
              (unsigned long long)m.v[0]);
    seen[m.v[0]] = true;
  }
  WCQ_CHECK(mem::stats().live_bytes == before.live_bytes,
            "%s: %lld bytes live after the pop", name,
            (long long)(mem::stats().live_bytes - before.live_bytes));
  std::printf("  ok batch_pop_mixed   %s\n", name);
}

// A chunk's values leave through two handles on two threads, 20 then
// 44: the slab stays allocated until the second pop and is freed
// exactly once.
template <typename Q>
void test_batch_slab_two_handles(const char* name, const options& opt) {
  using M = typename Q::value_type;
  Q q(options{opt}.order(8).max_threads(3));
  auto h = q.get_handle();
  const std::uint64_t idle = mem::stats().live_bytes;
  std::vector<M> in(64);
  for (std::uint64_t i = 0; i < in.size(); ++i) in[i].v.fill(i);
  WCQ_CHECK(q.try_push_n(in.data(), 64, h) == 64, "%s: push_n", name);
  std::vector<M> out(64);
  std::size_t got = 0;
  std::uint64_t live_between = 0;
  for (const std::size_t n : {std::size_t{20}, std::size_t{44}}) {
    std::thread([&] {
      auto mine = q.get_handle();
      got += q.try_pop_n(out.data() + got, n, mine);
    }).join();
    if (got == 20) live_between = mem::stats().live_bytes;
  }
  WCQ_CHECK(got == 64, "%s: popped %zu of 64", name, got);
  WCQ_CHECK(live_between - idle == slab_bytes<M>(64),
            "%s: %llu bytes live with 44 of the slab's values queued, want "
            "%llu",
            name, (unsigned long long)(live_between - idle),
            (unsigned long long)slab_bytes<M>(64));
  WCQ_CHECK(mem::stats().live_bytes == idle,
            "%s: %lld bytes live once both handles popped", name,
            (long long)(mem::stats().live_bytes - idle));
  std::vector<bool> seen(64, false);
  for (const M& m : out) {
    WCQ_CHECK(m.v[0] < 64 && !seen[m.v[0]] && m.v[4] == m.v[0],
              "%s: value %llu lost, duplicated or torn", name,
              (unsigned long long)m.v[0]);
    seen[m.v[0]] = true;
  }
  std::printf("  ok batch_two_handles %s\n", name);
}

// A copy that throws inside a batch push: once in the first chunk (its
// 5th copy), once in the second chunk of a 100-value push (again its
// 5th copy, after a whole chunk of 64). The facade boxes a whole chunk
// before pushing it, so a throw pushes none of its chunk: 0 values
// land, then chunk 1's 64. No box may leak: live bytes rise by exactly
// the landed chunk's slab (the throwing chunk's is freed), those values
// pop back intact, and teardown returns to the baseline.
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
      const std::uint64_t slab = got == 0 ? 0 : slab_bytes<ThrowingMsg>(got);
      WCQ_CHECK(after - before == slab,
                "%s: a copy throwing after %d copies left %lld live bytes "
                "for %zu landed values, want their slab's %llu",
                name, copies, (long long)(after - before), got,
                (unsigned long long)slab);
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
