/// \file
/// The one Queue concept the whole repo programs against.
///
/// Two layers, two concepts:
///  - concepts::Backend is the raw 64-bit-slot surface every queue
///    implementation (wCQ, SCQ, NCQ, CCQ, LSCQ, FAA, MSQ, LCRQ) exposes;
///    `wcq::queue<T, B>` requires it of its B parameter.
///  - concepts::Queue is the typed facade surface (try_push(T),
///    try_pop() returning `optional<T>`, RAII handles); the harness
///    and the test battery constrain on it, so adding a lineup entry
///    is "satisfy the concept", not "match a duck-typed adapter by
///    hand".
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

#include "wcq/options.hpp"

namespace wcq::concepts {

/// Raw backend: options-constructible, per-thread Handle (possibly
/// empty), bool try_push/try_pop over 64-bit slots. try_get_handle
/// reports exhaustion as nullopt; only the facades (concepts::Queue)
/// also offer a throwing flavor.
template <typename B>
concept Backend =
    std::constructible_from<B, const wcq::options&> &&
    requires(B& b, typename B::Handle& h, std::uint64_t v, std::uint64_t* out) {
      typename B::Handle;
      { b.try_get_handle() } -> std::same_as<std::optional<typename B::Handle>>;
      { b.try_push(v, h) } -> std::same_as<bool>;
      { b.try_pop(out, h) } -> std::same_as<bool>;
    };

/// Typed queue facade: what workloads, tests, and benches see.
template <typename Q>
concept Queue =
    std::constructible_from<Q, const wcq::options&> &&
    requires(Q& q, typename Q::handle& h, const typename Q::value_type& v) {
      typename Q::value_type;
      typename Q::handle;
      { q.get_handle() } -> std::same_as<typename Q::handle>;
      { q.try_get_handle() } -> std::same_as<std::optional<typename Q::handle>>;
      { q.try_push(v, h) } -> std::same_as<bool>;
      { q.try_pop(h) } -> std::same_as<std::optional<typename Q::value_type>>;
    };

/// Queue over a backend that reclaims memory through the shared SMR
/// layer (wcq/smr.hpp): smr_stats() exposes the domain's retire/scan
/// counters, which the tests read through the facade to assert bounded
/// parked garbage. No template is constrained on it; static_asserts in
/// the harness pin which lineup entries satisfy it.
template <typename Q>
concept ReclaimingQueue =
    Queue<Q> && requires(const Q& q) {
      { q.smr_stats().retired_nodes } -> std::convertible_to<std::uint64_t>;
      { q.smr_stats().reclaimed_nodes } -> std::convertible_to<std::uint64_t>;
      { q.smr_stats().retire_calls } -> std::convertible_to<std::uint64_t>;
      { q.smr_stats().scans } -> std::convertible_to<std::uint64_t>;
    };

/// Queue with slow-path observability: stats() exposing fast/slow op
/// and help counters, which the ablation benches read through the
/// facade. No template is constrained on it; static_asserts in the
/// harness pin which lineup entries satisfy it.
template <typename Q>
concept ObservableQueue =
    Queue<Q> && requires(const Q& q) {
      { q.stats().fast_enqueues } -> std::convertible_to<std::uint64_t>;
      { q.stats().slow_enqueues } -> std::convertible_to<std::uint64_t>;
      { q.stats().fast_dequeues } -> std::convertible_to<std::uint64_t>;
      { q.stats().slow_dequeues } -> std::convertible_to<std::uint64_t>;
      { q.stats().helps } -> std::convertible_to<std::uint64_t>;
    };

}  // namespace wcq::concepts
