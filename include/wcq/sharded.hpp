/// \file
/// `wcq::sharded<T, Backend>` — a queue-of-queues scaling layer.
///
/// One FAA-ticketed ring is the contention wall at high core counts:
/// every operation, from every core, meets at the same head/tail
/// cache lines. This layer puts an array of independent backend
/// instances (shards) behind the exact same `concepts::Queue` surface
/// the rest of the repo programs against, so it drops into every
/// test, bench, and adapter unchanged — the scaling decision becomes
/// a configuration knob (`options::shards`), not an API fork.
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
/// backends with a native burst — FaaQueue claims a run of tickets
/// with a single FAA — one ticket acquisition) over up to
/// `options::batch_limit` values per chunk. Values are encoded
/// through `slot_codec<T>`, so boxed payloads batch exactly like
/// inline ones.
///
/// ## Capacity
///
/// Total capacity stays `2^order` for bounded backends: the order is
/// split as `order - log2(shards)` per shard, so one options value
/// sizes sharded and unsharded queues identically. The constructor
/// refuses bad knobs through `options::validate` (a shard count that
/// is not a power of two, a split leaving a shard under two slots, a
/// zero `batch_limit`, ...) with `std::invalid_argument` — refuse,
/// never silently clamp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

/// Sharded queue-of-queues over any concepts::Backend. Satisfies
/// concepts::Queue, so the whole harness accepts it as a lineup entry.
template <typename T, typename Backend = WcqQueue>
class sharded {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");

 public:
  using value_type = T;
  using backend_type = Backend;
  using codec = slot_codec<T>;

  class handle;

  explicit sharded(const options& opt = options{})
      : nshards_(resolve_shards(opt)),
        mask_(nshards_ - 1),
        step_(opt.shard_policy() == shard_policy::round_robin ? 1 : 0),
        batch_limit_(opt.batch_limit()) {
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

  ~sharded() {
    // Boxed values still parked in any shard own heap memory; reclaim
    // them before the shards tear down their rings.
    if constexpr (codec::kBoxed) {
      for (unsigned s = 0; s < nshards_; ++s) {
        auto h = shards_[s].try_get_handle();
        if (h) {
          std::uint64_t slot = 0;
          while (shards_[s].try_pop(&slot, *h)) codec::drop(slot);
        }
      }
    }
    for (unsigned s = 0; s < nshards_; ++s) shards_[s].~Backend();
    mem::free(shards_, nshards_ * sizeof(Backend));
  }

  sharded(const sharded&) = delete;
  sharded& operator=(const sharded&) = delete;

  /// RAII registration with EVERY shard (one backend handle each), so
  /// an op can land anywhere without a registration on its hot path.
  /// Move-only; must not outlive the sharded queue.
  class handle {
   public:
    handle() = delete;

    handle(handle&& o) noexcept
        : q_(std::exchange(o.q_, nullptr)),
          subs_(o.subs_),
          scratch_(o.scratch_),
          push_cur_(o.push_cur_),
          pop_cur_(o.pop_cur_) {}

    handle& operator=(handle&& o) noexcept {
      if (this != &o) {
        release();
        q_ = std::exchange(o.q_, nullptr);
        subs_ = o.subs_;
        scratch_ = o.scratch_;
        push_cur_ = o.push_cur_;
        pop_cur_ = o.pop_cur_;
      }
      return *this;
    }

    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    ~handle() { release(); }

   private:
    friend class sharded;
    using BackendHandle = typename Backend::Handle;

    handle(sharded* q, BackendHandle* subs, std::uint64_t* scratch,
           unsigned id)
        : q_(q), subs_(subs), scratch_(scratch), push_cur_(id), pop_cur_(id) {}

    void release() {
      if (q_ != nullptr) {
        for (unsigned s = q_->nshards_; s-- > 0;) subs_[s].~BackendHandle();
        mem::free(subs_, q_->nshards_ * sizeof(BackendHandle));
        mem::free(scratch_, q_->batch_limit_ * sizeof(std::uint64_t));
        q_ = nullptr;
      }
    }

    sharded* q_ = nullptr;
    BackendHandle* subs_ = nullptr;
    std::uint64_t* scratch_ = nullptr;  // batch_limit slots
    // round_robin cursor / sticky home, one per direction, starting at
    // the handle's id. Masked at use; push and pop start aligned for
    // single-handle FIFO.
    unsigned push_cur_ = 0;
    unsigned pop_cur_ = 0;
  };

  /// nullopt iff some shard has all max_threads handle slots live.
  std::optional<handle> try_get_handle() {
    using BH = typename Backend::Handle;
    BH* subs = static_cast<BH*>(mem::alloc(nshards_ * sizeof(BH)));
    unsigned made = 0;
    for (; made < nshards_; ++made) {
      auto sub = shards_[made].try_get_handle();
      if (!sub) break;
      new (&subs[made]) BH(std::move(*sub));
    }
    if (made < nshards_) {
      while (made-- > 0) subs[made].~BH();
      mem::free(subs, nshards_ * sizeof(BH));
      return std::nullopt;
    }
    auto* scratch = static_cast<std::uint64_t*>(
        mem::alloc(batch_limit_ * sizeof(std::uint64_t)));
    return handle(this, subs, scratch,
                  next_handle_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Throwing flavor for call sites where exhaustion is a logic error.
  handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "sharded: a shard has all max_threads handle slots "
          "simultaneously live");
    }
    return std::move(*h);
  }

  /// False iff no shard accepts (all full, or the backend reserves
  /// the value's bit pattern — see queue.hpp's sentinel caveat).
  bool try_push(T v, handle& h) {
    const std::uint64_t slot = codec::encode(std::move(v));
    if (push_slot(slot, h)) return true;
    codec::drop(slot);
    return false;
  }

  /// nullopt iff every shard reports empty.
  std::optional<T> try_pop(handle& h) {
    std::uint64_t slot = 0;
    if (!pop_slot(&slot, h)) return std::nullopt;
    return codec::decode(slot);
  }

  /// Batch enqueue: vs[0..n) in order, one shard selection per
  /// batch_limit-sized chunk (plus the backend's native ticket burst
  /// where it has one). Returns the accepted count; stops early when
  /// no shard will take the next value (all full, or a reserved
  /// sentinel pattern — the refused value stays with the caller).
  std::size_t try_push_n(const T* vs, std::size_t n, handle& h) {
    std::size_t pushed = 0;
    while (pushed < n) {
      const std::size_t chunk =
          std::min<std::size_t>(batch_limit_, n - pushed);
      for (std::size_t i = 0; i < chunk; ++i) {
        h.scratch_[i] = codec::encode(vs[pushed + i]);
      }
      const std::size_t ok = push_slots(h.scratch_, chunk, h);
      for (std::size_t i = ok; i < chunk; ++i) codec::drop(h.scratch_[i]);
      pushed += ok;
      if (ok < chunk) break;
    }
    return pushed;
  }

  /// Batch dequeue into out[0..n): returns how many values arrived
  /// (zero iff every shard is empty). Values from one shard arrive in
  /// that shard's FIFO order; chunks may interleave shards.
  std::size_t try_pop_n(T* out, std::size_t n, handle& h) {
    std::size_t got = 0;
    while (got < n) {
      const std::size_t chunk = std::min<std::size_t>(batch_limit_, n - got);
      const std::size_t ok = pop_slots(h.scratch_, chunk, h);
      for (std::size_t i = 0; i < ok; ++i) {
        out[got + i] = codec::decode(h.scratch_[i]);
      }
      got += ok;
      if (ok < chunk) break;
    }
    return got;
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
    for (unsigned s = 1; s < nshards_; ++s) {
      const auto st = shards_[s].stats();
      total.fast_enqueues += st.fast_enqueues;
      total.slow_enqueues += st.slow_enqueues;
      total.fast_dequeues += st.fast_dequeues;
      total.slow_dequeues += st.slow_dequeues;
      total.helps += st.helps;
    }
    return total;
  }

  /// SMR retire/scan counters summed over shards (reclaiming
  /// backends).
  auto smr_stats() const
    requires requires(const Backend& b) { b.smr_stats(); }
  {
    auto total = shards_[0].smr_stats();
    for (unsigned s = 1; s < nshards_; ++s) {
      const auto st = shards_[s].smr_stats();
      total.retired_nodes += st.retired_nodes;
      total.reclaimed_nodes += st.reclaimed_nodes;
      total.retire_calls += st.retire_calls;
      total.scans += st.scans;
    }
    return total;
  }

 private:
  // The shard count with 0 = auto resolved — a power of two derived
  // from the machine, one shard per ~4 cpus, capped at 8 (the
  // topology-aware sweep in the benches picks its own counts; this
  // default just has to be sane anywhere) — after validating `opt`
  // with that count.
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

  // Single-slot ops scan from the handle's cursor and, on success, set
  // it to the accepting shard plus step_: round_robin moves one past
  // it, sticky adopts it as the new home (rebalance on full/empty). A
  // fully failed scan leaves the cursor, and so the push/pop
  // alignment, untouched.
  bool push_slot(std::uint64_t slot, handle& h) {
    const unsigned c = h.push_cur_;
    for (unsigned k = 0; k < nshards_; ++k) {
      const unsigned s = (c + k) & mask_;
      if (shards_[s].try_push(slot, h.subs_[s])) {
        h.push_cur_ = c + k + step_;
        return true;
      }
    }
    return false;
  }

  bool pop_slot(std::uint64_t* slot, handle& h) {
    const unsigned c = h.pop_cur_;
    for (unsigned k = 0; k < nshards_; ++k) {
      const unsigned s = (c + k) & mask_;
      if (shards_[s].try_pop(slot, h.subs_[s])) {
        h.pop_cur_ = c + k + step_;
        return true;
      }
    }
    return false;
  }

  // The shard a batch chunk targets, advancing the cursor once per
  // CHUNK (that is the amortization): round_robin steps, sticky stays
  // home.
  unsigned pick(unsigned& cur) const {
    const unsigned s = cur & mask_;
    cur += step_;
    return s;
  }

  // Push a run of encoded slots into shard s; native backend burst
  // when it exists, else a loop (same semantics, no ticket
  // amortization). Returns slots accepted.
  std::size_t shard_push_n(unsigned s, const std::uint64_t* slots,
                           std::size_t n, handle& h) {
    if constexpr (requires {
                    {
                      shards_[s].try_push_n(slots, n, h.subs_[s])
                    } -> std::same_as<std::size_t>;
                  }) {
      return shards_[s].try_push_n(slots, n, h.subs_[s]);
    } else {
      std::size_t ok = 0;
      while (ok < n && shards_[s].try_push(slots[ok], h.subs_[s])) ++ok;
      return ok;
    }
  }

  std::size_t shard_pop_n(unsigned s, std::uint64_t* slots, std::size_t n,
                          handle& h) {
    if constexpr (requires {
                    {
                      shards_[s].try_pop_n(slots, n, h.subs_[s])
                    } -> std::same_as<std::size_t>;
                  }) {
      return shards_[s].try_pop_n(slots, n, h.subs_[s]);
    } else {
      std::size_t ok = 0;
      while (ok < n && shards_[s].try_pop(&slots[ok], h.subs_[s])) ++ok;
      return ok;
    }
  }

  // Slot-level batch push: one shard pick per chunk; when the picked
  // shard refuses mid-chunk, the refused slot is routed through the
  // scanning single-slot path (which also rebalances sticky homes),
  // and the remainder re-picks. Stops only on a global refusal.
  std::size_t push_slots(const std::uint64_t* slots, std::size_t n,
                         handle& h) {
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick(h.push_cur_);
      done += shard_push_n(s, slots + done, n - done, h);
      if (done == n) break;
      if (!push_slot(slots[done], h)) break;
      ++done;
    }
    return done;
  }

  std::size_t pop_slots(std::uint64_t* slots, std::size_t n, handle& h) {
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick(h.pop_cur_);
      done += shard_pop_n(s, slots + done, n - done, h);
      if (done == n) break;
      if (!pop_slot(&slots[done], h)) break;
      ++done;
    }
    return done;
  }

  const unsigned nshards_;
  const unsigned mask_;
  // Cursor advance after a success: 1 for round_robin, 0 for sticky.
  const unsigned step_;
  const unsigned batch_limit_;
  Backend* shards_ = nullptr;
  std::atomic<unsigned> next_handle_{0};
};

}  // namespace wcq
