/// \file
/// `wcq::queue<T, Backend>` — the typed public face of the library.
///
/// The paper presents wCQ as an index ring that "becomes" a general
/// queue by pairing aq/fq rings with a data array (§2.2, §5); the
/// backends here already store 64-bit slots, so the only missing piece
/// is a codec between T and a slot. `slot_codec<T>` stores any trivially
/// copyable T of at most 8 bytes directly in the slot (zero overhead —
/// for T = std::uint64_t the encode/decode compile away entirely) and
/// falls back to pointer indirection for anything larger, boxing the
/// value (a batch chunk into one slab) through the counting allocator
/// so Figure 10's memory accounting still sees it.
///
/// Handles are RAII: get_handle() registers the calling thread with
/// the backend (a ThreadRec slot for wCQ, an SMR slot for
/// LSCQ/LCRQ/FAA/MSQ, nothing for SCQ/NCQ/CCQ, a handle of every shard
/// for shard_set) and destruction recycles the registration, so
/// max_threads bounds concurrent participants rather than lifetime
/// thread count.
///
/// Caveat: a backend may reserve slot bit patterns for its own
/// protocol (FaaQueue reserves the top two as EMPTY/TAKEN sentinels,
/// LcrqQueue the all-ones EMPTY pattern; wCQ/SCQ/MSQ reserve none). An
/// inline-encoded T whose bytes collide with a reserved pattern (e.g.
/// std::int64_t{-1} over FaaQueue) is refused by that backend's
/// try_push — use a boxed slot_codec specialization over such backends
/// when T needs the full 64-bit space, since pointers never collide
/// with the sentinels.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

/// True when T can live directly inside a 64-bit data slot.
template <typename T>
inline constexpr bool fits_in_slot_v =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t) &&
    std::is_default_constructible_v<T>;

/// `slot_codec<T>` maps T to and from a uint64_t slot. Specializable
/// for user types that have a smarter packing than the defaults (e.g.
/// tagged 48-bit pointers). `kBoxed` tells the facade whether a slot
/// owns an allocation that must be reclaimed on failed pushes / queue
/// teardown.
template <typename T, bool Inline = fits_in_slot_v<T>>
struct slot_codec;

/// Inline storage: bitwise copy into the low bytes of the slot.
template <typename T>
struct slot_codec<T, true> {
  static constexpr bool kBoxed = false;

  static std::uint64_t encode(const T& v) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, &v, sizeof(T));
    return slot;
  }

  static T decode(std::uint64_t slot) {
    T v{};
    std::memcpy(&v, &slot, sizeof(T));
    return v;
  }

  static void drop(std::uint64_t) {}
};

/// Boxed storage: the slot carries a pointer to a heap cell {slab, T}.
/// Goes through mem::alloc so boxed traffic shows up in the Figure 10
/// memory accounting like every other queue allocation.
///
/// encode boxes a value alone: one allocation of one cell whose slab
/// is null, 8 + sizeof(T) bytes rounded up to the cell's alignment
/// (40 B for a 32-byte T). encode_n boxes a batch chunk into one slab:
/// one allocation of an 8-byte header {refs, cells} and n cells that
/// point back at it, 8 + n * 40 B for n 32-byte values. Every slot is
/// still a plain pointer to its cell, so it never collides with a
/// backend's sentinels. A slab's refs count its values not yet decoded
/// or dropped; whoever gives back the last frees the slab.
///
/// Memory bound: a slab stays allocated until the last of its values
/// leaves the queue or is dropped, so in the worst case one live value
/// holds a whole slab, 8 + kBatchChunk cells (2,568 B for a 32-byte T).
/// Nothing is pooled or reused across chunks.
template <typename T>
struct slot_codec<T, false> {
  static constexpr bool kBoxed = true;

  static std::uint64_t encode(T v) {
    Cell* c = new (mem::alloc(sizeof(Cell), alignof(Cell)))
        Cell{nullptr, std::move(v)};
    return reinterpret_cast<std::uint64_t>(c);
  }

  static T decode(std::uint64_t slot) {
    T v = std::move(cell(slot)->value);
    drop(slot);
    return v;
  }

  static void drop(std::uint64_t slot) { drop_n(&slot, 1); }

  /// The `_n` forms take one chunk: n <= kBatchChunk, else they throw
  /// std::length_error before touching anything.
  ///
  /// Boxes copies of vs[0..n) into one slab, slots[0..n) pointing at its
  /// cells. All-or-nothing: if copying a value throws, the cells made so
  /// far are destroyed, the slab is freed and the exception propagates.
  static void encode_n(const T* vs, std::size_t n, std::uint64_t* slots) {
    check_chunk(n);
    if (n == 0) return;
    const std::size_t bytes = slab_bytes(n);
    Slab* s = new (mem::alloc(bytes, alignof(Cell)))
        Slab{static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n)};
    Cell* cells = cells_of(s);
    std::size_t made = 0;
    try {
      for (; made < n; ++made) {
        slots[made] = reinterpret_cast<std::uint64_t>(
            new (&cells[made]) Cell{s, vs[made]});
      }
    } catch (...) {
      while (made-- > 0) cells[made].~Cell();
      mem::free(s, bytes, alignof(Cell));
      throw;
    }
  }

  /// Moves the values out of slots[0..n) into out[0..n), then gives
  /// every box back, also when a move throws.
  static void decode_n(const std::uint64_t* slots, std::size_t n, T* out) {
    check_chunk(n);
    try {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::move(cell(slots[i])->value);
      }
    } catch (...) {
      drop_n(slots, n);
      throw;
    }
    drop_n(slots, n);
  }

  /// Destroys the values in slots[0..n) and gives their boxes back: a
  /// lone cell is freed, and each run of slots from one slab gives back
  /// its references at once.
  static void drop_n(const std::uint64_t* slots, std::size_t n) {
    check_chunk(n);
    Slab* run = nullptr;
    std::uint32_t held = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Cell* c = cell(slots[i]);
      Slab* s = c->slab;
      c->~Cell();
      if (s == nullptr) {
        mem::free(c, sizeof(Cell), alignof(Cell));
        continue;
      }
      if (s != run) {
        if (held != 0) give_back(run, held);
        run = s;
        held = 0;
      }
      ++held;
    }
    if (held != 0) give_back(run, held);
  }

 private:
  struct Slab {
    std::atomic<std::uint32_t> refs;
    std::uint32_t cells;
  };
  struct Cell {
    Slab* slab;  // null: boxed alone
    T value;
  };
  // A slab is aligned for its cells, which follow the header at their
  // own alignment: at least 8, the header's size (a cell holds a
  // pointer).
  static constexpr std::size_t kCellsAt = alignof(Cell);
  static_assert(sizeof(Slab) <= kCellsAt);

  static constexpr std::size_t slab_bytes(std::size_t n) {
    return kCellsAt + n * sizeof(Cell);
  }
  static Cell* cells_of(Slab* s) {
    return reinterpret_cast<Cell*>(reinterpret_cast<std::byte*>(s) +
                                   kCellsAt);
  }
  static Cell* cell(std::uint64_t slot) {
    return reinterpret_cast<Cell*>(slot);
  }

  // Gives back k of s's references; whoever gives back the last frees
  // s. refs never rises, so a holder that reads it equal to its own k
  // holds every reference left and frees without an RMW: a chunk popped
  // whole by one thread costs no atomic RMW at all. The acquire (load
  // or fetch_sub) orders the other holders' reads of their cells before
  // the free.
  static void give_back(Slab* s, std::uint32_t k) {
    if (s->refs.load(std::memory_order_acquire) != k &&
        s->refs.fetch_sub(k, std::memory_order_acq_rel) != k) {
      return;
    }
    mem::free(s, slab_bytes(s->cells), alignof(Cell));
  }

  static void check_chunk(std::size_t n) {
    if (n > kBatchChunk) {
      throw std::length_error("slot_codec: a batch chunk holds at most "
                              "kBatchChunk values");
    }
  }
};

namespace detail {

// A codec's chunk forms (at most kBatchChunk values): its encode_n /
// decode_n / drop_n where it has them, else one per-value call each,
// so a user specialization without them keeps working. On both paths
// a throw leaks no box: if encoding value k throws, values 0..k-1 are
// dropped; if decoding value k throws, values k+1.. are.
template <typename Codec>
void drop_chunk(const std::uint64_t* slots, std::size_t n) {
  if constexpr (requires { Codec::drop_n(slots, n); }) {
    Codec::drop_n(slots, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) Codec::drop(slots[i]);
  }
}

template <typename Codec, typename T>
void encode_chunk(const T* vs, std::size_t n, std::uint64_t* slots) {
  if constexpr (requires { Codec::encode_n(vs, n, slots); }) {
    Codec::encode_n(vs, n, slots);
  } else {
    std::size_t made = 0;
    try {
      for (; made < n; ++made) slots[made] = Codec::encode(vs[made]);
    } catch (...) {
      drop_chunk<Codec>(slots, made);
      throw;
    }
  }
}

template <typename Codec, typename T>
void decode_chunk(const std::uint64_t* slots, std::size_t n, T* out) {
  if constexpr (requires { Codec::decode_n(slots, n, out); }) {
    Codec::decode_n(slots, n, out);
  } else {
    std::size_t i = 0;
    try {
      for (; i < n; ++i) out[i] = Codec::decode(slots[i]);
    } catch (...) {
      drop_chunk<Codec>(slots + i + 1, n - i - 1);
      throw;
    }
  }
}

// A backend with its own push burst: FaaQueue claims a run of tickets
// with one FAA, wCQ a chunk's free indices and their fq positions with
// one F&A per ring, shard_set picks one shard per run.
template <typename Backend>
concept PushBurst = requires(Backend& b, const std::uint64_t* slots,
                             std::size_t n, typename Backend::Handle& h) {
  { b.try_push_n(slots, n, h) } -> std::same_as<std::size_t>;
};

// Pushes slots[0..n) into one backend in order, stopping at the first
// refusal; returns how many it took. One native burst where the
// backend has one, else one try_push per slot.
template <typename Backend>
std::size_t backend_push_n(Backend& b, const std::uint64_t* slots,
                           std::size_t n, typename Backend::Handle& h) {
  if constexpr (PushBurst<Backend>) {
    return b.try_push_n(slots, n, h);
  } else {
    std::size_t ok = 0;
    while (ok < n && b.try_push(slots[ok], h)) ++ok;
    return ok;
  }
}

template <typename Backend>
std::size_t backend_pop_n(Backend& b, std::uint64_t* slots, std::size_t n,
                          typename Backend::Handle& h) {
  if constexpr (requires {
                  { b.try_pop_n(slots, n, h) } -> std::same_as<std::size_t>;
                }) {
    return b.try_pop_n(slots, n, h);
  } else {
    std::size_t ok = 0;
    while (ok < n && b.try_pop(&slots[ok], h)) ++ok;
    return ok;
  }
}

}  // namespace detail

/// The typed MPMC queue facade over any concepts::Backend.
///
/// Move-only, options-constructible, used through per-thread RAII
/// handles. Every instantiation satisfies concepts::Queue, which is
/// the constraint all benches, tests, and workloads in this repo
/// program against.
template <typename T, typename Backend = WcqQueue>
class queue {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");

 public:
  using value_type = T;
  using backend_type = Backend;
  using codec = slot_codec<T>;

  /// RAII thread registration; move-only. One per participating
  /// thread, and it must not outlive the queue it came from (its
  /// destructor returns the registration to the queue).
  class handle {
   public:
    handle() = delete;
    handle(handle&&) = default;
    handle& operator=(handle&&) = default;
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

   private:
    friend class queue;
    explicit handle(typename Backend::Handle h) : h_(std::move(h)) {}
    typename Backend::Handle h_;
  };

  explicit queue(const options& opt = options{}) : backend_(opt) {}

  /// Boxed values still sitting in the queue own heap memory; reclaim
  /// them before the backend tears down its rings.
  ~queue() {
    if constexpr (codec::kBoxed) {
      auto h = backend_.try_get_handle();
      if (h) {
        std::uint64_t slot = 0;
        while (backend_.try_pop(&slot, *h)) codec::drop(slot);
      }
    }
  }

  queue(const queue&) = delete;
  queue& operator=(const queue&) = delete;

  /// nullopt iff max_threads handles are simultaneously live.
  std::optional<handle> try_get_handle() {
    auto h = backend_.try_get_handle();
    if (!h) return std::nullopt;
    return handle(std::move(*h));
  }

  /// Throwing flavor for call sites where exhaustion is a logic
  /// error.
  handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "queue: all max_threads handle slots are simultaneously live");
    }
    return std::move(*h);
  }

  /// False iff the queue is full (bounded backends only).
  bool try_push(T v, handle& h) {
    const std::uint64_t slot = codec::encode(std::move(v));
    if (backend_.try_push(slot, h.h_)) return true;
    codec::drop(slot);
    return false;
  }

  /// nullopt iff the queue is empty.
  std::optional<T> try_pop(handle& h) {
    std::uint64_t slot = 0;
    if (!backend_.try_pop(&slot, h.h_)) return std::nullopt;
    return codec::decode(slot);
  }

  /// Batch enqueue: pushes vs[0..n) in order, stopping at the first
  /// refusal (queue full, or a backend-reserved sentinel pattern);
  /// returns how many were accepted. Works in kBatchChunk chunks: a
  /// chunk is encoded (boxed values into one slab), pushed as one burst
  /// where the backend has its own (wCQ, FaaQueue, shard_set), else one
  /// value at a time, and the refused tail is dropped (a chunk refused
  /// whole makes one allocation and frees it). If copying a value
  /// throws, that chunk is pushed not at all and the exception
  /// propagates; earlier chunks stay queued.
  std::size_t try_push_n(const T* vs, std::size_t n, handle& h) {
    std::uint64_t slots[kBatchChunk];
    std::size_t pushed = 0;
    while (pushed < n) {
      const std::size_t chunk = std::min(n - pushed, kBatchChunk);
      detail::encode_chunk<codec>(vs + pushed, chunk, slots);
      const std::size_t ok =
          detail::backend_push_n(backend_, slots, chunk, h.h_);
      pushed += ok;
      if (ok < chunk) {
        detail::drop_chunk<codec>(slots + ok, chunk - ok);
        break;
      }
    }
    return pushed;
  }

  /// Batch dequeue into out[0..n): returns how many values arrived
  /// (zero iff the queue is empty), in queue order. Works in
  /// kBatchChunk chunks as try_push_n: a chunk is popped as one burst
  /// where the backend has its own, else one value at a time, and
  /// decoded (each run of values from one slab gives its references
  /// back at once).
  std::size_t try_pop_n(T* out, std::size_t n, handle& h) {
    std::uint64_t slots[kBatchChunk];
    std::size_t got = 0;
    while (got < n) {
      const std::size_t chunk = std::min(n - got, kBatchChunk);
      const std::size_t ok =
          detail::backend_pop_n(backend_, slots, chunk, h.h_);
      detail::decode_chunk<codec>(slots, ok, out + got);
      got += ok;
      if (ok < chunk) break;
    }
    return got;
  }

  /// Backend extras surface only where they exist (wCQ stats, bounded
  /// capacity), so the facade adds no requirements beyond the
  /// concept.
  auto capacity() const
    requires requires(const Backend& b) { b.capacity(); }
  {
    return backend_.capacity();
  }

  /// Fast/slow-path operation and help counters (ObservableQueue
  /// backends).
  auto stats() const
    requires requires(const Backend& b) { b.stats(); }
  {
    return backend_.stats();
  }

  /// Per-shard counters summed (shard_set over an observable backend;
  /// see there why they are not stats()).
  auto backend_stats() const
    requires requires(const Backend& b) { b.backend_stats(); }
  {
    return backend_.backend_stats();
  }

  /// Backends that reclaim through the shared SMR layer (MSQ, FAA,
  /// LCRQ, LSCQ) expose the domain's retire/scan counters.
  auto smr_stats() const
    requires requires(const Backend& b) { b.smr_stats(); }
  {
    return backend_.smr_stats();
  }

  /// The backend itself (tests; not a stable API).
  Backend& backend() { return backend_; }

 private:
  Backend backend_;
};

}  // namespace wcq
