// Low-level shared bits: cache-line constants, cpu_pause, the entry
// prefetch (prefetch_for_write) and a ring's no-op data access, CAS2 (the
// double-width compare-and-swap wCQ's note protocol rides on), and the
// packed note/request-control layouts of the cooperative slow path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>
#endif

namespace wcq::detail {

// One line for data, two for the false-sharing guard most allocators
// and the Folly/Abseil crowd use on modern Intel (spatial prefetcher).
inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::size_t kNoFalseSharing = 128;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Fetch the line at p for writing: a hint with no memory-model effect.
// A ring ticket loads its entry and then CASes it; asking for the line
// exclusive first makes the pair one coherence transaction instead of
// a shared fill plus an upgrade. On x86-64, __builtin_prefetch emits
// prefetchw only under -mprfchw (else the read prefetch prefetcht0), so
// the instruction is spelled out; parts without the PRFCHW feature
// decode its 0F 0D opcode as a NOP. AArch64's builtin is prfm pstl1keep.
[[gnu::always_inline]] inline void prefetch_for_write(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

// The data accesses a ring's enqueue_idx runs after its first Tail
// ticket (scq.hpp): none by default, a push's value store, a pop's
// value load. They are named rather than lambdas because C++20 puts an
// attribute on a lambda's call operator only from C++23 on.
struct NoAccess {
  [[gnu::always_inline]] void operator()() const {}
};

struct StoreValue {
  std::atomic<std::uint64_t>& slot;
  std::uint64_t v;
  [[gnu::always_inline]] void operator()() const {
    slot.store(v, std::memory_order_relaxed);
  }
};

struct LoadValue {
  const std::atomic<std::uint64_t>& slot;
  std::uint64_t* out;
  [[gnu::always_inline]] void operator()() const {
    *out = slot.load(std::memory_order_relaxed);
  }
};

// Bump a counter that only one thread ever writes: the holder of the
// per-slot record it lives in (wCQ's ThreadRec, the SMR SlotState).
// One writer makes the read-modify-write safe as a relaxed load plus a
// relaxed store, with no locked RMW on the hot path. The field stays a
// std::atomic so readers summing it concurrently (stats()) are
// race-free and see each field grow monotonically. When a slot changes
// hands, SlotRegistry's release -> acquire edge orders the last
// owner's final store before the next owner's first load.
[[gnu::always_inline]] inline void owner_bump(
    std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

// Returns the number of index bits needed for `x` (x must be a power
// of two).
inline constexpr unsigned log2_pow2(std::uint64_t x) {
  unsigned r = 0;
  while ((std::uint64_t{1} << r) < x) ++r;
  return r;
}

// ---- CAS2: double-width (128-bit) compare-and-swap ------------------
//
// The wCQ slow path publishes per-entry notes next to each ring word
// and needs {word, note} to change together (Figures 4-7). On x86-64
// that is one `lock cmpxchg16b`; everywhere else (and under TSan,
// which cannot see through inline asm) we fall back to the compiler's
// 128-bit __atomic builtins — the same "portable build" posture as the
// LL/SC-shaped ring consume of Section 4.

struct Pair {
  std::uint64_t word;  // ring entry: [cycle | is_safe | index]
  std::uint64_t note;  // 0, or a packed slow-path note (see below)
};

// Aliasing contract: the 16-byte CAS paths operate on storage that is
// concurrently accessed as two separate std::atomic<uint64_t> members
// (NotedEntry in ring_entry.hpp) through a reinterpret_cast to Pair.
// Mixing access widths on the same atomic object is outside the C++
// memory model, but it is the only way to pair cmpxchg16b with plain
// 64-bit loads/CASes and is well-defined at the ISA level on every
// target we build for (all lock-prefixed ops on the same line). The
// asserts pin the layout assumptions the cast relies on: an atomic
// u64 is exactly its value representation and lock-free, so Pair and
// {atomic<u64>, atomic<u64>} are layout-interchangeable.
//
// Mixed-width CAS: the wCQ ring's fast path CASes the word half with 8
// bytes while slow-path helpers CAS2 the whole pair (the noted bit,
// ring::NotedEntry). The two are atomic with respect to each other
// where CAS2 is one hardware instruction: `lock cmpxchg16b` below, and
// libatomic's cx16 path, where cas2_portable's call lands on it. Both
// lock the entry's line, as the 8-byte `lock cmpxchg` does, so neither
// can land inside the other. It would not hold over a lock-based
// 16-byte fallback, such as a libatomic without cx16 or the
// spin-locked emulation in gcc 12's TSan runtime: the 8-byte CAS takes
// no lock, can land between the fallback's read and its write, and is
// then overwritten. kCas2Hardware marks the builds whose cas2 is the
// inline instruction. Which path libatomic takes is its own choice (an
// ifunc on the running CPU, or how it was built), so the portable ring
// relies on it only where __atomic_is_lock_free says so. Wherever the
// contract is not known to hold, every word mutation of the wCQ ring
// stays a CAS2 (ScqRingT::narrow_word_cas).
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "wcq requires lock-free 64-bit atomics");
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "wcq relies on std::atomic<u64> having no extra state");
static_assert(sizeof(Pair) == 2 * sizeof(std::uint64_t) &&
                  alignof(Pair) <= 16,
              "Pair must be two packed 64-bit words");

#if defined(__SANITIZE_THREAD__)
#define WCQ_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WCQ_TSAN 1
#endif
#endif
#ifndef WCQ_TSAN
#define WCQ_TSAN 0
#endif

#if defined(__x86_64__) && !WCQ_TSAN
#define WCQ_CAS2_NATIVE 1
#else
#define WCQ_CAS2_NATIVE 0
#endif

// cas2 inlines cmpxchg16b, one hardware instruction, so the
// mixed-width contract above holds for it. On other builds (TSan,
// non-x86) no wCQ ring relies on the contract; on these, the portable
// ring still asks libatomic about cas2_portable.
inline constexpr bool kCas2Hardware = WCQ_CAS2_NATIVE != 0;

// Portable CAS2: __atomic builtins on a 16-byte object. With -mcx16
// (set by the build for x86-64) this stays lock-free; under TSan it is
// also the instrumented path the race detector can reason about. This
// is the Section 4 "portable build" shape, and what WcqPortableQueue
// runs unconditionally.
inline bool cas2_portable(Pair* addr, Pair* expected, Pair desired) {
  return __atomic_compare_exchange(addr, expected, &desired,
                                   /*weak=*/false, __ATOMIC_SEQ_CST,
                                   __ATOMIC_SEQ_CST);
}

// Atomically: if *addr == *expected, store desired and return true;
// else copy the current value into *expected and return false. `addr`
// must be 16-byte aligned. Full barrier on success and failure.
inline bool cas2(Pair* addr, Pair* expected, Pair desired) {
#if WCQ_CAS2_NATIVE
  bool ok;
  asm volatile("lock cmpxchg16b %1"
               : "=@ccz"(ok), "+m"(*addr), "+a"(expected->word),
                 "+d"(expected->note)
               : "b"(desired.word), "c"(desired.note)
               : "memory");
  return ok;
#else
  return cas2_portable(addr, expected, desired);
#endif
}

// ---- note layout -----------------------------------------------------
//
// A note is a nonzero 64-bit word parked in the second half of a ring
// entry, attributing in-flight slow-path work to one request:
//
//   [ marker:1 | phase:1 | kind:1 | slot:9 | seq:31 | aux:21 ]
//
// marker    always 1 so a live note is never mistaken for "no note".
// phase     A (0) = revocable claim, the entry word is frozen but
//           unchanged; B (1) = the commit happened in the same CAS2
//           that wrote this note.
// kind      0 enqueue, 1 dequeue (matches the request's ctl kind).
// slot      owning ThreadRec slot (max_threads <= 512).
// seq       low bits of the request sequence number, to tie the note
//           to one incarnation of the record.
// aux       enqueue claim: low bits of the target cycle; dequeue
//           claim/commit: the consumed ring index (result transport).

inline constexpr unsigned kNoteAuxBits = 21;
inline constexpr unsigned kNoteSeqBits = 31;
inline constexpr unsigned kNoteSlotBits = 9;
inline constexpr std::uint64_t kNoteAuxMask =
    (std::uint64_t{1} << kNoteAuxBits) - 1;
inline constexpr std::uint64_t kNoteSeqMask =
    (std::uint64_t{1} << kNoteSeqBits) - 1;
inline constexpr std::uint64_t kNoteSlotMask =
    (std::uint64_t{1} << kNoteSlotBits) - 1;
inline constexpr unsigned kMaxNoteThreads = 1u << kNoteSlotBits;
inline constexpr unsigned kMaxNoteOrder = kNoteAuxBits - 1;  // idx bits fit

inline constexpr std::uint64_t pack_note(bool phase_b, bool deq,
                                         std::uint64_t slot,
                                         std::uint64_t seq,
                                         std::uint64_t aux) {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(phase_b) << 62) |
         (static_cast<std::uint64_t>(deq) << 61) |
         ((slot & kNoteSlotMask) << (kNoteSeqBits + kNoteAuxBits)) |
         ((seq & kNoteSeqMask) << kNoteAuxBits) | (aux & kNoteAuxMask);
}
inline constexpr bool note_phase_b(std::uint64_t n) {
  return ((n >> 62) & 1u) != 0;
}
inline constexpr bool note_deq(std::uint64_t n) {
  return ((n >> 61) & 1u) != 0;
}
inline constexpr std::uint64_t note_slot(std::uint64_t n) {
  return (n >> (kNoteSeqBits + kNoteAuxBits)) & kNoteSlotMask;
}
inline constexpr std::uint64_t note_seq(std::uint64_t n) {
  return (n >> kNoteAuxBits) & kNoteSeqMask;
}
inline constexpr std::uint64_t note_aux(std::uint64_t n) {
  return n & kNoteAuxMask;
}

// ---- result word -----------------------------------------------------
//
// A dequeue's result travels through the request's 64-bit result word
// as [ seq:42 | value:22 ]. The owner publishes {seq, kResultNone};
// finalizers CAS {seq, kResultNone} -> {seq, index}, so a stale
// finalizer of an earlier incarnation can never clobber a successor
// operation's result (its expected seq no longer matches), and exactly
// one delivery per incarnation succeeds. Ring indices are at most 21
// bits (kMaxNoteOrder), so they never collide with the sentinel.

inline constexpr unsigned kResultValBits = 22;
inline constexpr std::uint64_t kResultValMask =
    (std::uint64_t{1} << kResultValBits) - 1;
inline constexpr std::uint64_t kResultNone = kResultValMask;

inline constexpr std::uint64_t pack_result(std::uint64_t seq,
                                           std::uint64_t val) {
  return (seq << kResultValBits) | (val & kResultValMask);
}
inline constexpr std::uint64_t result_val(std::uint64_t r) {
  return r & kResultValMask;
}

// ---- request control word -------------------------------------------
//
// Every thread record owns one RingRequest whose 64-bit ctl word is
// the request's whole lifecycle, advanced by CAS from any thread:
//
//   [ seq:37 | j:22 | ring:1 | kind:1 | state:3 ]
//
// state     Idle -> Pending -> Phase2 -> DoneOk | DoneEmpty.
//           Phase2 and DoneOk carry j, the ring slot the operation
//           committed (or will commit) at; exactly one Pending->Phase2
//           transition ever succeeds per seq, which is what makes the
//           commit single despite any number of concurrent helpers.
// ring      which of the queue's two rings (0 = aq, 1 = fq).
// kind      0 enqueue-index, 1 dequeue-index.
// seq       monotone per record; a note referencing an old seq is
//           stale by definition and safely revocable.

inline constexpr std::uint64_t kReqIdle = 0;
inline constexpr std::uint64_t kReqPending = 1;
inline constexpr std::uint64_t kReqPhase2 = 2;
inline constexpr std::uint64_t kReqDoneOk = 3;
inline constexpr std::uint64_t kReqDoneEmpty = 4;

inline constexpr unsigned kCtlStateBits = 3;
inline constexpr unsigned kCtlJBits = 22;
inline constexpr std::uint64_t kCtlStateMask =
    (std::uint64_t{1} << kCtlStateBits) - 1;
inline constexpr std::uint64_t kCtlJMask = (std::uint64_t{1} << kCtlJBits) - 1;

inline constexpr std::uint64_t pack_ctl(std::uint64_t seq, std::uint64_t j,
                                        bool fq_ring, bool deq,
                                        std::uint64_t state) {
  return (seq << (kCtlJBits + 2 + kCtlStateBits)) |
         ((j & kCtlJMask) << (2 + kCtlStateBits)) |
         (static_cast<std::uint64_t>(fq_ring) << (1 + kCtlStateBits)) |
         (static_cast<std::uint64_t>(deq) << kCtlStateBits) |
         (state & kCtlStateMask);
}
inline constexpr std::uint64_t ctl_state(std::uint64_t c) {
  return c & kCtlStateMask;
}
inline constexpr bool ctl_deq(std::uint64_t c) {
  return ((c >> kCtlStateBits) & 1u) != 0;
}
inline constexpr bool ctl_fq(std::uint64_t c) {
  return ((c >> (1 + kCtlStateBits)) & 1u) != 0;
}
inline constexpr std::uint64_t ctl_j(std::uint64_t c) {
  return (c >> (2 + kCtlStateBits)) & kCtlJMask;
}
inline constexpr std::uint64_t ctl_seq(std::uint64_t c) {
  return c >> (kCtlJBits + 2 + kCtlStateBits);
}
// Same seq/ring/kind, new j + state.
inline constexpr std::uint64_t ctl_with(std::uint64_t c, std::uint64_t j,
                                        std::uint64_t state) {
  return pack_ctl(ctl_seq(c), j, ctl_fq(c), ctl_deq(c), state);
}
// Does note `n` reference the request incarnation `c` is showing?
inline constexpr bool note_matches_ctl(std::uint64_t n, std::uint64_t c) {
  return note_seq(n) == (ctl_seq(c) & kNoteSeqMask) &&
         note_deq(n) == ctl_deq(c) && ctl_state(c) != kReqIdle;
}

}  // namespace wcq::detail
