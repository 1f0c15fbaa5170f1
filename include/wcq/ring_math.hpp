// Ring arithmetic — the layer every SCQ-family ring (NCQ, CCQ, SCQ,
// wCQ, LSCQ segments) shares, factored out of the old scq_ring.hpp
// monolith so a new ring variant composes it instead of forking it.
//
// Two pieces:
//
//  - Geometry: the cycle/index packing of a ring of 2n entries backing
//    a queue of capacity n = 2^order. A position counter's quotient by
//    the ring size is its *cycle*; a 64-bit packed entry is
//    [ cycle | is_safe (1 bit) | index ], where index occupies
//    order+1 bits and all-ones means "empty" (BOT). CCQ's split
//    entries (CAS2 pairs) use Geometry for positions only; the ring
//    kernel's codec (scq_ring.hpp) keeps their cycle and safe bit in
//    the meta word and their index in a word of its own.
//
//  - Remap: the Cache_Remap position permutation as a pluggable
//    policy value — Remap::cache() spreads consecutive Head/Tail
//    positions across cache lines (and degrades to identity when the
//    ring fits a single line anyway), Remap::identity() is the
//    ablation/naive variant. Both directions (map/unmap) are exposed:
//    the wCQ slow path reconstructs positions from (cycle, slot).
#pragma once

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

/// Cycle/index arithmetic for a ring of 2^(order+1) entries backing a
/// queue of 2^order indices. Pure value type: every ring variant owns
/// one and delegates its packing instead of inlining shift soup.
class Geometry {
 public:
  constexpr explicit Geometry(unsigned order)
      : order_(order),
        n_(std::uint64_t{1} << order),
        ring_size_(n_ * 2),
        idx_bits_(order + 1),
        idx_mask_((std::uint64_t{1} << (order + 1)) - 1) {}

  constexpr unsigned order() const { return order_; }
  constexpr std::uint64_t capacity() const { return n_; }
  constexpr std::uint64_t ring_size() const { return ring_size_; }

  /// The "empty" index sentinel: all index bits set.
  constexpr std::uint64_t bot() const { return idx_mask_; }

  constexpr std::uint64_t pack(std::uint64_t cycle, bool safe,
                               std::uint64_t idx) const {
    return (cycle << (idx_bits_ + 1)) |
           (static_cast<std::uint64_t>(safe) << idx_bits_) | idx;
  }
  constexpr std::uint64_t cycle_of_pos(std::uint64_t pos) const {
    return pos >> (order_ + 1);
  }
  constexpr std::uint64_t cycle_of_entry(std::uint64_t e) const {
    return e >> (idx_bits_ + 1);
  }
  constexpr bool is_safe(std::uint64_t e) const {
    return ((e >> idx_bits_) & 1u) != 0;
  }
  constexpr std::uint64_t idx_of_entry(std::uint64_t e) const {
    return e & idx_mask_;
  }

  /// Position counter value for (cycle, ring slot) — the inverse of
  /// {cycle_of_pos, slot}; the slow path bumps Head/Tail with it.
  constexpr std::uint64_t pos_of(std::uint64_t cycle,
                                 std::uint64_t slot) const {
    return (cycle << (order_ + 1)) + slot;
  }

 private:
  unsigned order_;
  std::uint64_t n_;
  std::uint64_t ring_size_;
  unsigned idx_bits_;
  std::uint64_t idx_mask_;
};

/// Position permutation policy. Cache_Remap (the paper's §2 trick)
/// rotates position bits so consecutive positions land on distinct
/// cache lines; identity keeps the natural order. A runtime flag
/// rather than a template so one ring type serves both (the remap
/// ablation bench toggles it per options).
class Remap {
 public:
  /// Cache_Remap over `g`, for entries of which 2^line_bits fit one
  /// cache line. Degrades to identity when the whole ring occupies a
  /// single line's worth of slots per rotation (order+1 <= line_bits),
  /// where the permutation would be a no-op anyway.
  static constexpr Remap cache(const Geometry& g, unsigned line_bits) {
    return Remap(g, line_bits, g.order() + 1 > line_bits);
  }

  static constexpr Remap identity(const Geometry& g) {
    return Remap(g, 0, false);
  }

  constexpr std::uint64_t map(std::uint64_t pos) const {
    const std::uint64_t masked = pos & (ring_size_ - 1);
    if (!on_) return masked;
    return ((masked >> (order2_ - line_bits_)) | (masked << line_bits_)) &
           (ring_size_ - 1);
  }

  /// Inverse permutation: ring slot back to position-mod-ring-size.
  constexpr std::uint64_t unmap(std::uint64_t j) const {
    if (!on_) return j;
    return ((j << (order2_ - line_bits_)) | (j >> line_bits_)) &
           (ring_size_ - 1);
  }

 private:
  constexpr Remap(const Geometry& g, unsigned line_bits, bool on)
      : ring_size_(g.ring_size()),
        order2_(g.order() + 1),  // log2(ring_size)
        line_bits_(line_bits),
        on_(on) {}

  std::uint64_t ring_size_;
  unsigned order2_;
  unsigned line_bits_;
  bool on_;
};

}  // namespace wcq::ring
