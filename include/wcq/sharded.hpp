/// \file
/// `wcq::sharded<T, Backend>` — a queue-of-queues scaling layer.
///
/// One FAA-ticketed ring is the contention wall at high core counts:
/// every operation, from every core, meets at the same head/tail
/// cache lines. `wcq::shard_set<Backend>` puts an array of independent
/// backend instances (shards) behind the `concepts::Backend` surface,
/// and `sharded<T, Backend>` is the typed facade over it,
/// `wcq::queue<T, shard_set<Backend>>`: the codec, handles, batching
/// and teardown are `wcq::queue`'s, so sharded drops into every test,
/// bench, and adapter unchanged — the scaling decision becomes a
/// configuration knob (`options::shards`), not an API fork.
///
/// ## Ordering contract (read this before depending on FIFO)
///
/// Each shard is a FIFO queue; *cross-shard* ordering is relaxed.
/// Precisely: values a single handle pushes into the same shard are
/// dequeued from that shard in push order, but two values a producer
/// spreads over different shards may be observed by a consumer in
/// either order. Workloads needing a global order use one shard
/// (`options::shards(1)` — the plain queue behind the same surface).
///
/// ## Pickers (`options::shard_policy`)
///
///  - `round_robin` (default): a per-handle cursor, advanced on every
///    successful op. Push and pop cursors of one handle start aligned,
///    so a single-threaded user still observes exact FIFO. On refusal
///    (shard full/empty) the op scans the remaining shards before
///    giving up, leaving the cursor untouched so the alignment
///    survives full/empty episodes.
///  - `sticky`: the handle has a home shard (its id modulo shards) per
///    direction and stays there — the zero-interference layout when
///    threads <= shards — rebalancing only when the home refuses:
///    push moves home on full, pop moves home on empty.
///
/// ## Batch API
///
/// `try_push_n`/`try_pop_n` amortize one shard selection (and, on
/// backends with a native burst — wCQ claims a chunk's free indices
/// and fq positions with one F&A per ring, FaaQueue a run of tickets
/// with a single FAA — one ticket acquisition) over each chunk of up
/// to `wcq::kBatchChunk` (64) slots that `wcq::queue` hands them. A
/// chunk the picked shard refuses moves on to the other shards, so the
/// facade drops only the boxes that every shard refused.
///
/// ## Capacity
///
/// Total capacity stays `2^order` for bounded backends: the order is
/// split as `order - log2(shards)` per shard, so one options value
/// sizes sharded and unsharded queues identically. The constructor
/// refuses bad knobs through `options::validate` (a shard count that
/// is not a power of two, a split leaving a shard under two slots,
/// ...) with `std::invalid_argument` — refuse, never silently clamp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <thread>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

/// Shards of any concepts::Backend behind one concepts::Backend over
/// 64-bit slots: what `wcq::sharded` types.
template <typename Backend>
class shard_set {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");

  using BH = typename Backend::Handle;  // one shard's

  // A handle's registration: a handle of every shard, so an op can
  // land anywhere without a registration on its hot path, and the
  // round_robin cursor / sticky home per direction, both starting at
  // the handle's id. Masked at use; push and pop start aligned for
  // single-handle FIFO.
  struct Row {
    BH* subs;
    unsigned push_cur;
    unsigned pop_cur;
  };

 public:
  /// RAII registration with every shard; move-only, and it must not
  /// outlive the shard set.
  using Handle = RegistryHandle<shard_set, Row>;

  explicit shard_set(const options& opt = options{})
      : nshards_(resolve_shards(opt)),
        mask_(nshards_ - 1),
        step_(opt.shard_policy() == shard_policy::round_robin ? 1 : 0) {
    // Each shard is one plain queue holding its slice of 2^order.
    options per_shard = opt;
    per_shard.order(opt.order() - detail::log2_pow2(nshards_)).shards(1);
    shards_ = static_cast<Backend*>(mem::alloc(nshards_ * sizeof(Backend)));
    unsigned made = 0;
    try {
      for (; made < nshards_; ++made) {
        new (&shards_[made]) Backend(per_shard);
      }
    } catch (...) {
      while (made-- > 0) shards_[made].~Backend();
      mem::free(shards_, nshards_ * sizeof(Backend));
      throw;
    }
  }

  ~shard_set() {
    for (unsigned s = 0; s < nshards_; ++s) shards_[s].~Backend();
    mem::free(shards_, nshards_ * sizeof(Backend));
  }

  shard_set(const shard_set&) = delete;
  shard_set& operator=(const shard_set&) = delete;

  /// nullopt iff some shard has all max_threads handle slots live.
  std::optional<Handle> try_get_handle() {
    Row row{static_cast<BH*>(mem::alloc(nshards_ * sizeof(BH))), 0, 0};
    for (unsigned s = 0; s < nshards_; ++s) {
      auto sub = shards_[s].try_get_handle();
      if (!sub) {
        release_slot(row, s);
        return std::nullopt;
      }
      new (&row.subs[s]) BH(std::move(*sub));
    }
    row.push_cur = row.pop_cur =
        next_handle_.fetch_add(1, std::memory_order_relaxed);
    return Handle(this, row);
  }

  // Single-slot ops scan from the handle's cursor and, on success, set
  // it to the accepting shard plus step_: round_robin moves one past
  // it, sticky adopts it as the new home (rebalance on full/empty). A
  // fully failed scan leaves the cursor, and so the push/pop
  // alignment, untouched.

  /// False iff no shard accepts (all full, or the backend reserves
  /// the slot's bit pattern — see queue.hpp's sentinel caveat).
  bool try_push(std::uint64_t slot, Handle& h) {
    Row& row = h.slot();
    const unsigned c = row.push_cur;
    for (unsigned k = 0; k < nshards_; ++k) {
      const unsigned s = (c + k) & mask_;
      if (shards_[s].try_push(slot, row.subs[s])) {
        row.push_cur = c + k + step_;
        return true;
      }
    }
    return false;
  }

  /// False iff every shard reports empty.
  bool try_pop(std::uint64_t* slot, Handle& h) {
    Row& row = h.slot();
    const unsigned c = row.pop_cur;
    for (unsigned k = 0; k < nshards_; ++k) {
      const unsigned s = (c + k) & mask_;
      if (shards_[s].try_pop(slot, row.subs[s])) {
        row.pop_cur = c + k + step_;
        return true;
      }
    }
    return false;
  }

  /// Batch push of slots[0..n) in order; returns how many went in.
  /// One shard pick per call, whose run goes in as that shard's native
  /// burst where it has one (else one push at a time); when the picked
  /// shard refuses mid-run, the refused slot takes the scanning
  /// try_push (which also rebalances sticky homes), and the remainder
  /// re-picks. Stops only on a global refusal.
  std::size_t try_push_n(const std::uint64_t* slots, std::size_t n,
                         Handle& h) {
    Row& row = h.slot();
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick(row.push_cur);
      done += detail::backend_push_n(shards_[s], slots + done, n - done,
                                     row.subs[s]);
      if (done == n) break;
      if (!try_push(slots[done], h)) break;
      ++done;
    }
    return done;
  }

  /// Batch pop into slots[0..n), as try_push_n: returns how many
  /// arrived, zero iff every shard is empty. Slots from one shard
  /// arrive in that shard's FIFO order; runs may interleave shards.
  std::size_t try_pop_n(std::uint64_t* slots, std::size_t n, Handle& h) {
    Row& row = h.slot();
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick(row.pop_cur);
      done += detail::backend_pop_n(shards_[s], slots + done, n - done,
                                    row.subs[s]);
      if (done == n) break;
      if (!try_pop(&slots[done], h)) break;
      ++done;
    }
    return done;
  }

  unsigned shard_count() const { return nshards_; }

  /// Direct access to one shard (tests and benches; not a stable API).
  Backend& shard(unsigned s) { return shards_[s]; }

  /// Total capacity (bounded backends): the sum over shards, which by
  /// construction is 2^order.
  auto capacity() const
    requires requires(const Backend& b) { b.capacity(); }
  {
    decltype(shards_[0].capacity()) total = 0;
    for (unsigned s = 0; s < nshards_; ++s) total += shards_[s].capacity();
    return total;
  }

  /// Backend op counters summed over shards (observable backends).
  /// Named backend_stats, not stats: these count *backend* attempts —
  /// one sharded op that scans k shards performs k backend ops — so
  /// they are deliberately not drop-in comparable with a plain
  /// queue's stats().
  auto backend_stats() const
    requires requires(const Backend& b) {
      { b.stats().fast_enqueues } -> std::convertible_to<std::uint64_t>;
    }
  {
    auto total = shards_[0].stats();
    for (unsigned s = 1; s < nshards_; ++s) total += shards_[s].stats();
    return total;
  }

  /// SMR retire/scan counters summed over shards (reclaiming
  /// backends).
  auto smr_stats() const
    requires requires(const Backend& b) { b.smr_stats(); }
  {
    auto total = shards_[0].smr_stats();
    for (unsigned s = 1; s < nshards_; ++s) total += shards_[s].smr_stats();
    return total;
  }

 private:
  friend Handle;

  // Gives a row back: destroys its first `made` sub-handles (all of
  // them for a handle, fewer after a registration that failed half-way)
  // and frees the array.
  void release_slot(const Row& row, unsigned made) {
    while (made-- > 0) row.subs[made].~BH();
    mem::free(row.subs, nshards_ * sizeof(BH));
  }
  void release_slot(const Row& row) { release_slot(row, nshards_); }

  // The shard count with 0 = auto resolved — a power of two derived
  // from the machine, one shard per ~4 cpus, capped at 8 (the shard
  // sweep in the benches sets its counts explicitly; this default just
  // has to be sane anywhere) — after validating `opt` with that count.
  static unsigned resolve_shards(const options& opt) {
    unsigned n = opt.shards();
    if (n == 0) {
      const unsigned want = std::thread::hardware_concurrency() / 4;
      n = 1;
      while (n * 2 <= want && n < 8) n *= 2;
    }
    options{opt}.shards(n).validate("sharded");
    return n;
  }

  // The shard a batch call targets, advancing the cursor once per
  // call, so once per facade chunk (that is the amortization):
  // round_robin steps, sticky stays home.
  unsigned pick(unsigned& cur) const {
    const unsigned s = cur & mask_;
    cur += step_;
    return s;
  }

  const unsigned nshards_;
  const unsigned mask_;
  // Cursor advance after a success: 1 for round_robin, 0 for sticky.
  const unsigned step_;
  Backend* shards_ = nullptr;
  std::atomic<unsigned> next_handle_{0};
};

/// The sharded typed queue. Satisfies concepts::Queue, so the whole
/// harness accepts it as a lineup entry.
template <typename T, typename Backend = WcqQueue>
using sharded = queue<T, shard_set<Backend>>;

}  // namespace wcq
