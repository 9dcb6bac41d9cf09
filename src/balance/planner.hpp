// TargetPlanner + PlanScheduler: whole-topology placement over measured load
// (ip_balance).
//
// The construction-time partitioner (core/planner.cpp) places sections by
// PLANNED thread counts — all it can know before anything runs. Once the
// flow is live, the LoadAccountant's EWMA busy shares are the truth. The
// TargetPlanner turns them into weights and hands every section to the same
// place() the partitioner and the shard evacuation use, then reads the
// multi-move delta between the current and target placements off the
// result.
//
// A multi-move plan executed naively can transit through placements hotter
// than either endpoint (moving A->B before B's own section left for C piles
// both on B). The PlanScheduler orders the moves so no shard's projected
// load ever exceeds a hot-spot watermark: it batches moves whose shard sets
// are disjoint (safe to run back to back, or concurrently) and refuses to
// schedule a move whose destination would breach the watermark until an
// earlier move has drained that destination. When no safe order exists the
// plan is returned truncated with complete=false — the caller retries after
// the next sample rather than thrash a hot shard.
//
// Both are pure functions over plain data (no ShardedRealization access
// inside the algorithms), so tests can drive them with synthetic
// topologies.
#pragma once

#include <cstddef>
#include <vector>

#include "balance/accountant.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::balance {

/// One section as the planner sees it: identity, planned weight, current
/// placement, mobility. Built from a ShardedRealization by describe() or by
/// hand in tests.
struct SectionDesc {
  std::size_t id = 0;     ///< section index in the realization
  int threads = 1;        ///< planned middleware threads inside the section
  int home = -1;          ///< shard currently hosting the section
  bool migratable = true;
};

/// One move of the delta between current and target placement. `load` is the
/// busy share the move shifts from `from` to `to` (the planner's weight for
/// the section).
struct PlannedMove {
  std::size_t section = 0;
  int from = -1;
  int to = -1;
  double load = 0.0;
};

struct TargetPlan {
  /// Target shard per section, indexed like the input section vector.
  std::vector<int> assignment;
  /// Sections whose target differs from home, in input order.
  std::vector<PlannedMove> moves;
  double makespan = 0.0;          ///< max projected shard load under the plan
  double current_makespan = 0.0;  ///< max attributed shard load as measured
  /// False when a pinned section is homed on a shard outside the candidate
  /// set (e.g. a retiring shard hosts a non-migratable section): the plan
  /// leaves it in place and the caller must not retire that shard.
  bool feasible = true;
};

/// No scheduled move may lift its destination's projected load above this.
/// 0.95 leaves headroom for the measurement noise between planning and
/// execution.
inline constexpr double kHotspotWatermark = 0.95;

/// Busy fraction of `shard` in a per-shard vector; shards it does not cover
/// (added since the sample, or -1) read 0.
[[nodiscard]] double busy_of(const std::vector<double>& busy, int shard);

class TargetPlanner {
 public:
  /// Computes a target assignment of `sections` over the candidate `shards`
  /// given measured per-shard busy fractions (`busy` is indexed by absolute
  /// shard id; ids not covered read 0).
  ///
  /// Weight model: a shard's measured busy share is attributed to its
  /// resident sections proportionally to their planned thread counts —
  /// measurement decides how much load a shard carries, the plan decides how
  /// it splits. When nothing has been measured yet (all busy ~ 0) the
  /// weights fall back to raw thread counts, reproducing the construction
  /// partitioner.
  ///
  /// Placement: place() with pinned sections immobile — see core/planner.hpp
  /// for the LPT and sticky-pass rules. An already balanced placement
  /// yields an empty move list instead of a cosmetic reshuffle.
  [[nodiscard]] static TargetPlan plan(
      const std::vector<SectionDesc>& sections, const std::vector<int>& shards,
      const std::vector<double>& busy);

  /// Convenience: describe `sr`'s sections and plan over `shards` with the
  /// snapshot's busy vector.
  [[nodiscard]] static TargetPlan plan(shard::ShardedRealization& sr,
                                       const LoadSnapshot& load,
                                       const std::vector<int>& shards);

  /// The section descriptors the convenience overload feeds the planner.
  [[nodiscard]] static std::vector<SectionDesc> describe(
      shard::ShardedRealization& sr);
};

/// One batch = moves with pairwise-disjoint {from, to} shard sets: executing
/// them in any order (or concurrently) projects the same loads.
struct ScheduledPlan {
  std::vector<std::vector<PlannedMove>> batches;
  std::vector<PlannedMove> ordered;  ///< batches flattened, execution order
  /// False when some moves could not be scheduled without breaching the
  /// watermark; `ordered` then holds only the safe prefix.
  bool complete = true;
};

class PlanScheduler {
 public:
  /// Orders `moves` against the measured per-shard loads (`busy` indexed by
  /// absolute shard id). Projected loads start from the measurement and
  /// move by each scheduled move's `load`; a move is eligible only while
  /// its destination stays at or under kHotspotWatermark. Eligible moves
  /// are taken hottest-source-first (tie: lowest section id) and packed
  /// into disjoint-shard batches.
  [[nodiscard]] static ScheduledPlan schedule(
      const std::vector<PlannedMove>& moves, const std::vector<double>& busy);
};

}  // namespace infopipe::balance
