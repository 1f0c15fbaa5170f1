/// \file
/// wcq::options — the one configuration object every backend consumes.
///
/// A fluent builder (each setter returns *this) so call sites read as
/// a sentence:
///
/// \code
///   wcq::queue<std::uint64_t> q(
///       wcq::options{}.order(16).max_threads(64).help_delay(16));
/// \endcode
///
/// Knobs not meaningful for a given backend are ignored by it (e.g.
/// patience for SCQ, order for MSQ), so one options value can configure
/// a whole lineup of queues identically — which is exactly what the
/// benchmark harness does. Every backend's constructor first calls
/// validate(), the one refusal rule: a knob outside its range throws
/// std::invalid_argument naming the knob, on every backend alike,
/// whether or not that backend reads the knob.
#pragma once

#include <climits>
#include <stdexcept>
#include <string>

#include "wcq/detail.hpp"

namespace wcq {

/// How `wcq::sharded<T>` picks the shard an operation lands on.
/// Ordering contract per picker is documented on wcq/sharded.hpp; both
/// preserve per-shard FIFO. `options::shards(1)` is the global-FIFO
/// mode.
enum class shard_policy : unsigned char {
  round_robin,  ///< per-handle cursor, one step per op (default)
  sticky,       ///< producer/consumer shard affinity, rebalance on
                ///< full (push) or empty (pop)
};

/// Fluent configuration builder shared by every queue backend.
///
/// Defaults match the paper's §6 methodology (2^16 ring, patience
/// 16/64, HELP_DELAY 16, Cache_Remap on). Each setter returns *this;
/// the same-name no-argument overload reads the knob back.
class options {
 public:
  /// A validate() ceiling the calling backend does not have.
  static constexpr unsigned kNoLimit = UINT_MAX;
  /// Most shards one wcq::sharded may split into.
  static constexpr unsigned kMaxShards = 256;

  constexpr options() = default;

  /// Ring capacity = 2^order values (bounded backends; paper §6
  /// uses 16). The ceiling is what the backend's entries can encode.
  constexpr options& order(unsigned v) {
    order_ = v;
    return *this;
  }
  constexpr unsigned order() const { return order_; }

  /// Upper bound on *simultaneously live* handles, >= 1. With RAII
  /// recycling this is a concurrency bound, not a lifetime-total
  /// bound.
  constexpr options& max_threads(unsigned v) {
    max_threads_ = v;
    return *this;
  }
  constexpr unsigned max_threads() const { return max_threads_; }

  /// Fast-path attempts before an enqueue is published for helping,
  /// >= 1 (wCQ; paper §6 default 16).
  constexpr options& enqueue_patience(unsigned v) {
    enqueue_patience_ = v;
    return *this;
  }
  constexpr unsigned enqueue_patience() const { return enqueue_patience_; }

  /// Fast-path attempts before a dequeue is published for helping,
  /// >= 1 (wCQ; paper §6 default 64).
  constexpr options& dequeue_patience(unsigned v) {
    dequeue_patience_ = v;
    return *this;
  }
  constexpr unsigned dequeue_patience() const { return dequeue_patience_; }

  /// Both patience knobs at once, preserving the paper's 1:4 shape
  /// when callers sweep a single value.
  constexpr options& patience(unsigned enq, unsigned deq) {
    enqueue_patience_ = enq;
    dequeue_patience_ = deq;
    return *this;
  }

  /// Own operations between peer help checks, >= 1 (wCQ §3.1).
  /// UINT_MAX in effect turns helping off.
  constexpr options& help_delay(unsigned v) {
    help_delay_ = v;
    return *this;
  }
  constexpr unsigned help_delay() const { return help_delay_; }

  /// Cache_Remap position permutation (§2; Ablation A3).
  constexpr options& remap(bool v) {
    remap_ = v;
    return *this;
  }
  constexpr bool remap() const { return remap_; }

  /// Shard count for wcq::sharded: a power of two up to kMaxShards,
  /// or 0 = auto, a machine-derived count (see wcq/sharded.hpp). Total
  /// capacity stays 2^order — it is split across the shards, so order
  /// must exceed log2(shards), and one options value sizes a sharded
  /// and an unsharded queue identically.
  constexpr options& shards(unsigned v) {
    shards_ = v;
    return *this;
  }
  constexpr unsigned shards() const { return shards_; }

  /// Shard-picking policy for wcq::sharded (ignored by plain
  /// backends). See wcq::shard_policy.
  using shard_policy_t = wcq::shard_policy;
  constexpr options& shard_policy(shard_policy_t v) {
    shard_policy_ = v;
    return *this;
  }
  constexpr shard_policy_t shard_policy() const { return shard_policy_; }

  /// Largest batch one try_push_n/try_pop_n call amortizes over a
  /// single shard selection, >= 1; longer spans are processed in
  /// chunks of this size (re-picking between chunks).
  constexpr options& batch_limit(unsigned v) {
    batch_limit_ = v;
    return *this;
  }
  constexpr unsigned batch_limit() const { return batch_limit_; }

  /// The one refusal rule: throws std::invalid_argument, prefixed by
  /// `who` and naming the knob, when
  ///  - enqueue_patience, dequeue_patience, help_delay, max_threads or
  ///    batch_limit is 0;
  ///  - shards is not 0 (auto) or a power of two up to kMaxShards, or
  ///    order does not exceed log2(shards);
  ///  - order or max_threads exceeds the calling backend's ceiling
  ///    (`max_order`, `max_threads`: what its entries can encode).
  ///
  /// Never clamps. Returns *this, so a constructor can validate in its
  /// first member initializer.
  const options& validate(const char* who, unsigned max_order = kNoLimit,
                          unsigned max_threads = kNoLimit) const {
    if (enqueue_patience_ == 0) refuse(who, "enqueue_patience must be >= 1");
    if (dequeue_patience_ == 0) refuse(who, "dequeue_patience must be >= 1");
    if (help_delay_ == 0) refuse(who, "help_delay must be >= 1");
    if (max_threads_ == 0) refuse(who, "max_threads must be >= 1");
    if (max_threads_ > max_threads) {
      refuse(who, "max_threads exceeds", max_threads);
    }
    if (order_ > max_order) refuse(who, "order exceeds", max_order);
    if ((shards_ & (shards_ - 1)) != 0 || shards_ > kMaxShards) {
      refuse(who, "shards must be 0 or a power of two up to", kMaxShards);
    }
    if (shards_ > 1 && order_ <= detail::log2_pow2(shards_)) {
      refuse(who, "order must exceed log2(shards)");
    }
    if (batch_limit_ == 0) refuse(who, "batch_limit must be >= 1");
    return *this;
  }

 private:
  // Out of line and cold: the message is built only on refusal.
  [[noreturn, gnu::cold, gnu::noinline]] static void refuse(
      const char* who, const char* rule, unsigned limit = kNoLimit) {
    std::string msg(who);
    msg += ": ";
    msg += rule;
    if (limit != kNoLimit) {
      msg += ' ';
      msg += std::to_string(limit);
    }
    throw std::invalid_argument(msg);
  }

  unsigned order_ = 16;
  unsigned max_threads_ = 128;
  unsigned enqueue_patience_ = 16;
  unsigned dequeue_patience_ = 64;
  unsigned help_delay_ = 16;
  bool remap_ = true;
  unsigned shards_ = 0;  // 0 = auto
  shard_policy_t shard_policy_ = shard_policy_t::round_robin;
  unsigned batch_limit_ = 64;
};

}  // namespace wcq
