// The paper's queue lineup, expressed through the one public surface:
// every entry is wcq::queue<std::uint64_t, Backend> plus a legend
// name. Workloads, tests, and benches constrain on
// wcq::concepts::Queue — there is no hand-rolled adapter duck type and
// no per-queue configuration plumbing here; wcq::options configures
// every backend uniformly.
//
// Every entry is the real design: wCQ (+ portable build), the SCQ
// family on the layered ring kernel (NCQ, CCQ, SCQ, LSCQ), FAA, MSQ,
// LCRQ. The paper's other series (YMC, CRTurn, the unbounded uwCQ) are
// not implemented; each would land as a Backend satisfying
// wcq::concepts::Backend plus an entry here.
#pragma once

#include <cstdint>

#include "wcq/ccq.hpp"
#include "wcq/concepts.hpp"
#include "wcq/faa_queue.hpp"
#include "wcq/lcrq.hpp"
#include "wcq/lscq.hpp"
#include "wcq/msq.hpp"
#include "wcq/ncq.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq.hpp"
#include "wcq/sharded.hpp"
#include "wcq/wcq.hpp"

namespace wcq::harness {

// A lineup entry: the typed facade over one backend, tagged with the
// series name the paper's figure legends use.
template <typename Backend, const char* Name>
class Lineup : public wcq::queue<std::uint64_t, Backend> {
 public:
  static constexpr const char* kName = Name;
  using base = wcq::queue<std::uint64_t, Backend>;
  using base::base;
};

// Sharded lineup entry: wcq::sharded over one backend. When the
// options leave the shard count on auto (0) it is forced to 4 so the
// shared tests exercise real multi-shard paths on any machine —
// auto-resolution on a small box would yield one shard and the
// sharding layer would be tested in name only.
template <typename Backend, const char* Name>
class ShardedLineup : public wcq::sharded<std::uint64_t, Backend> {
 public:
  static constexpr const char* kName = Name;
  using base = wcq::sharded<std::uint64_t, Backend>;

  explicit ShardedLineup(const options& opt = options{})
      : base(opt.shards() != 0 ? opt : options{opt}.shards(4)) {}
};

// Series names as they appear in the paper's legends.
inline constexpr char kWcqName[] = "wCQ";
inline constexpr char kWcqPortableName[] = "wCQ-llsc";
inline constexpr char kScqName[] = "SCQ";
inline constexpr char kNcqName[] = "NCQ";
inline constexpr char kCcqName[] = "CCQ";
inline constexpr char kLscqName[] = "LSCQ";
inline constexpr char kFaaName[] = "FAA";
inline constexpr char kLcrqName[] = "LCRQ";
inline constexpr char kMsqName[] = "MSQ";
inline constexpr char kShardedWcqName[] = "wCQ-shard";
inline constexpr char kShardedLcrqName[] = "LCRQ-shard";
inline constexpr char kShardedFaaName[] = "FAA-shard";

using WcqAdapter = Lineup<WcqQueue, kWcqName>;
using WcqPortableAdapter = Lineup<WcqPortableQueue, kWcqPortableName>;

using ScqAdapter = Lineup<ScqQueue, kScqName>;
using NcqAdapter = Lineup<NcqQueue, kNcqName>;
using CcqAdapter = Lineup<CcqQueue, kCcqName>;
using LscqAdapter = Lineup<LscqQueue, kLscqName>;

using FaaAdapter = Lineup<FaaQueue, kFaaName>;
using LcrqAdapter = Lineup<LcrqQueue, kLcrqName>;
using MsqAdapter = Lineup<MsqQueue, kMsqName>;

// The PR 9 scaling layer over the two flagship backends (plus FAA for
// the shard-sweep benches, where its native ticket burst makes the
// batch API's amortization visible).
using ShardedWcqAdapter = ShardedLineup<WcqQueue, kShardedWcqName>;
using ShardedLcrqAdapter = ShardedLineup<LcrqQueue, kShardedLcrqName>;
using ShardedFaaAdapter = ShardedLineup<FaaQueue, kShardedFaaName>;

// Every lineup entry satisfies the concept the whole harness programs
// against; a backend that drifts breaks the build here, not in a
// template stack twelve frames deep.
static_assert(concepts::Queue<WcqAdapter>);
static_assert(concepts::Queue<WcqPortableAdapter>);
static_assert(concepts::Queue<ScqAdapter>);
static_assert(concepts::Queue<NcqAdapter>);
static_assert(concepts::Queue<CcqAdapter>);
static_assert(concepts::Queue<LscqAdapter>);
static_assert(concepts::Queue<FaaAdapter>);
static_assert(concepts::Queue<LcrqAdapter>);
static_assert(concepts::Queue<MsqAdapter>);
static_assert(concepts::Queue<ShardedWcqAdapter>);
static_assert(concepts::Queue<ShardedLcrqAdapter>);
static_assert(concepts::Queue<ShardedFaaAdapter>);

// The ablation benches read fast/slow/help counters through the typed
// facade; the wCQ entries must stay observable.
static_assert(concepts::ObservableQueue<WcqAdapter>);
static_assert(concepts::ObservableQueue<WcqPortableAdapter>);

// The dynamic-memory backends reclaim through the shared SMR layer;
// the memory bench and SMR tests read its counters through the facade.
static_assert(concepts::ReclaimingQueue<MsqAdapter>);
static_assert(concepts::ReclaimingQueue<FaaAdapter>);
static_assert(concepts::ReclaimingQueue<LcrqAdapter>);
static_assert(concepts::ReclaimingQueue<LscqAdapter>);

}  // namespace wcq::harness
