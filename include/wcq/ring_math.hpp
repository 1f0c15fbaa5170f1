// Ring arithmetic — the layer every SCQ-family ring (NCQ, CCQ, SCQ,
// wCQ, LSCQ segments) shares, factored out of the old scq_ring.hpp
// monolith so a new ring variant composes it instead of forking it.
//
// Geometry is the cycle/index packing of a ring of 2n entries backing
// a queue of capacity n = 2^order, and the ring's one layout. A
// position counter's quotient by the ring size is its *cycle*; a
// 64-bit packed entry is [ cycle | is_safe (1 bit) | index ], where
// index occupies order+1 bits and all-ones means "empty" (BOT). CCQ's
// split entries (CAS2 pairs) use Geometry for positions only; the ring
// kernel's codec (scq_ring.hpp) keeps their cycle and safe bit in the
// meta word and their index in a word of its own.
//
// The layout is SCQ's Cache_Remap (§2): map() sends consecutive
// positions to entries on different cache lines, so the Head and Tail
// tickets of concurrent operations rarely share a line. unmap() is its
// inverse: the wCQ slow path rebuilds a position from (cycle, entry).
#pragma once

#include <cstddef>
#include <cstdint>

#include "wcq/detail.hpp"

namespace wcq::ring {

/// Largest order a packed 64-bit entry can encode: the index (order+1
/// bits), the safe bit and at least one cycle bit share the word.
///
/// Why the cycle field never wraps in practice: it has 62 - order
/// bits, and a position's cycle is the position shifted right by
/// order + 1, so the field holds the cycle of every position below
/// 2^(62 - order + order + 1) = 2^63 exactly, at every order. 2^63 is
/// the position counters' own limit: LSCQ's segment rings keep the
/// closed flag in bit 63 of Tail, and Head and Tail start at 2^(order+1)
/// and move by one FAA per ticket, so reaching it takes 2^63 FAAs on
/// one ring — about 292 years at 10^9 per second. The wCQ ring reserves
/// bit 63 of its word as the noted bit and so wraps at 2^62 instead;
/// see ring::NotedEntry.
inline constexpr unsigned kMaxOrder = 61;

/// Cycle/index arithmetic and entry layout for a ring of 2^(order+1)
/// entries of `entry_bytes` each, backing a queue of 2^order indices.
/// Pure value type: every ring variant owns one and delegates its
/// packing instead of inlining shift soup. The members a ticket calls
/// are always inlined, as the ring operations that call them are
/// (codegen_pinned checks both). The packing shifts by idx_bits_ alone
/// (and by constants), so a ticket holds one shift count beside map's
/// two: with a second one, gcc 12 spilled a register at the entry of
/// SCQ's try_pop, and its spent-threshold exit was no longer a leaf.
class Geometry {
 public:
  constexpr Geometry(unsigned order, std::size_t entry_bytes)
      : idx_bits_(order + 1),
        rot_(line_rotation(order, entry_bytes)),
        n_(std::uint64_t{1} << order),
        ring_size_(n_ * 2),
        idx_mask_((std::uint64_t{1} << (order + 1)) - 1) {}

  constexpr std::uint64_t capacity() const { return n_; }
  constexpr std::uint64_t ring_size() const { return ring_size_; }

  /// The "empty" index sentinel: all index bits set.
  [[gnu::always_inline]] constexpr std::uint64_t bot() const {
    return idx_mask_;
  }

  [[gnu::always_inline]] constexpr std::uint64_t pack(
      std::uint64_t cycle, bool safe, std::uint64_t idx) const {
    return (((cycle << 1) | static_cast<std::uint64_t>(safe)) << idx_bits_) |
           idx;
  }
  [[gnu::always_inline]] constexpr std::uint64_t cycle_of_pos(
      std::uint64_t pos) const {
    return pos >> idx_bits_;
  }
  [[gnu::always_inline]] constexpr std::uint64_t cycle_of_entry(
      std::uint64_t e) const {
    return (e >> idx_bits_) >> 1;
  }
  [[gnu::always_inline]] constexpr bool is_safe(std::uint64_t e) const {
    return ((e >> idx_bits_) & 1u) != 0;
  }
  [[gnu::always_inline]] constexpr std::uint64_t idx_of_entry(
      std::uint64_t e) const {
    return e & idx_mask_;
  }

  /// The entry that holds position `pos`: pos mod ring_size with its
  /// order+1 bits rotated left by rot_. The entries of one cache line
  /// then hold positions ring_size / 2^rot_ apart, so any
  /// min(entries per line, lines) consecutive positions sit on as many
  /// distinct lines. A ring that fits one line rotates by all its bits,
  /// which is the identity.
  [[gnu::always_inline]] constexpr std::uint64_t map(
      std::uint64_t pos) const {
    const std::uint64_t p = pos & idx_mask_;
    return ((p << rot_) | (p >> (idx_bits_ - rot_))) & idx_mask_;
  }
  /// Inverse of map: entry j back to its position mod ring_size.
  [[gnu::always_inline]] constexpr std::uint64_t unmap(
      std::uint64_t j) const {
    return ((j >> rot_) | (j << (idx_bits_ - rot_))) & idx_mask_;
  }

  /// Position counter value for (cycle, position mod ring_size) — the
  /// inverse of {cycle_of_pos, unmap(map(pos))}; the slow path bumps
  /// Head/Tail with it.
  constexpr std::uint64_t pos_of(std::uint64_t cycle,
                                 std::uint64_t slot) const {
    return (cycle << idx_bits_) + slot;
  }

 private:
  // log2 of the entries one cache line holds, capped at the ring's
  // order+1 bits.
  static constexpr unsigned line_rotation(unsigned order,
                                          std::size_t entry_bytes) {
    const unsigned line_bits =
        detail::log2_pow2(detail::kCacheLine / entry_bytes);
    return line_bits < order + 1 ? line_bits : order + 1;
  }

  unsigned idx_bits_;
  unsigned rot_;
  std::uint64_t n_;
  std::uint64_t ring_size_;
  std::uint64_t idx_mask_;
};

}  // namespace wcq::ring
