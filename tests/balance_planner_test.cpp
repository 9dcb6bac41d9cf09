// TargetPlanner / PlanScheduler tests (ip_balance): whole-topology placement
// over measured load, and hot-spot-safe move ordering.
//
// Both classes are pure functions over plain data, so this suite drives them
// with synthetic topologies — the companion of shard_partition_test, which
// covers the construction-time partitioner. The two properties that matter
// are pinned here directly: place(), which the partitioner, the shard
// evacuation and the TargetPlanner all call, is deterministic and
// equivariant under shard relabeling (tie-breaks by position, never by
// absolute id), and the scheduler NEVER emits a move whose destination's
// projected load breaches the hot-spot watermark — a property test over
// seeded random instances, replayed move by move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "balance/planner.hpp"
#include "core/planner.hpp"

namespace infopipe::balance {
namespace {

std::vector<SectionDesc> sections_of(
    const std::vector<std::pair<int, int>>& threads_home) {
  std::vector<SectionDesc> out;
  for (std::size_t i = 0; i < threads_home.size(); ++i) {
    SectionDesc s;
    s.id = i;
    s.threads = threads_home[i].first;
    s.home = threads_home[i].second;
    out.push_back(s);
  }
  return out;
}

// ---- place(): every caller's placement procedure ---------------------------

/// Ties in weight, a pinned item, an unhomed item and homes spread over all
/// three candidates.
const std::vector<PlaceItem> kItems{
    {0.175, 0, true}, {0.25, 1, true}, {0.0625, 2, true}, {0.5, 0, true},
    {0.125, 1, false}, {0.125, 2, true}, {0.25, -1, true}};

TEST(Place, DeterministicAcrossCalls) {
  const Placement a = place(kItems, {0, 1, 2});
  const Placement b = place(kItems, {0, 1, 2});
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.load, b.load);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(Place, EquivariantUnderShardRelabeling) {
  // Relabel the shards by a permutation pi (homes and candidate ids
  // relabeled consistently, positions kept): the placement must be the
  // pi-relabel of the original — LPT ties break by candidate POSITION, so
  // absolute ids never leak into the outcome.
  // pi: 0 -> 5, 1 -> 3, 2 -> 9 (sparse ids on purpose).
  const auto pi = [](int s) { return s == 0 ? 5 : s == 1 ? 3 : 9; };
  auto relabeled = kItems;
  for (PlaceItem& it : relabeled) {
    if (it.home >= 0) it.home = pi(it.home);
  }

  const Placement base = place(kItems, {0, 1, 2});
  const Placement perm = place(relabeled, {5, 3, 9});

  ASSERT_EQ(base.shard.size(), perm.shard.size());
  for (std::size_t i = 0; i < base.shard.size(); ++i) {
    EXPECT_EQ(perm.shard[i], pi(base.shard[i])) << "item " << i;
  }
  EXPECT_EQ(perm.load, base.load);  // per candidate position, bit for bit
  EXPECT_TRUE(base.feasible);
  EXPECT_TRUE(perm.feasible);
}

// ---- TargetPlanner ---------------------------------------------------------

TEST(TargetPlanner, UnmeasuredLoadFallsBackToThreadCounts) {
  // Nothing measured: weights are the planned thread counts, reproducing
  // the construction partitioner's LPT. {3,1,1,1} over two shards -> 3 | 1+1+1.
  const auto secs = sections_of({{3, 0}, {1, 0}, {1, 0}, {1, 0}});
  const TargetPlanner planner;
  const TargetPlan plan = planner.plan(secs, {0, 1}, {0.0, 0.0});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.assignment, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(plan.makespan, 3.0);
  EXPECT_EQ(plan.moves.size(), 3u);  // the three light sections leave home
  for (const PlannedMove& m : plan.moves) {
    EXPECT_EQ(m.from, 0);
    EXPECT_EQ(m.to, 1);
  }
}

TEST(TargetPlanner, MeasuredLoadSplitsByResidentThreadShares) {
  // Shard 0 measured at 0.9 hosts sections 0 (two threads) and 2 (one):
  // weights 0.6 / 0.3. Shard 1 at 0.1 hosts section 1: weight 0.1.
  const auto secs = sections_of({{2, 0}, {1, 1}, {1, 0}});
  const TargetPlanner planner;
  const TargetPlan plan = planner.plan(secs, {0, 1}, {0.9, 0.1});
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.current_makespan, 0.9);
  // One move — section 2's 0.3 joins shard 1 — lands 0.6 | 0.4.
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].section, 2u);
  EXPECT_EQ(plan.moves[0].from, 0);
  EXPECT_EQ(plan.moves[0].to, 1);
  EXPECT_NEAR(plan.moves[0].load, 0.3, 1e-12);
  EXPECT_NEAR(plan.makespan, 0.6, 1e-12);
}

TEST(TargetPlanner, BalancedPlacementYieldsNoMoves) {
  // The sticky pass returns every displaced section home when home stays
  // within the LPT makespan: an already-balanced flow is never reshuffled.
  const auto secs = sections_of({{1, 0}, {1, 1}});
  const TargetPlanner planner;
  const TargetPlan plan = planner.plan(secs, {0, 1}, {0.5, 0.5});
  ASSERT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.assignment, (std::vector<int>{0, 1}));
}

TEST(TargetPlanner, PinnedSectionsPreloadTheirHomes) {
  // A pinned heavy section stays put; the mobile sections pack around it.
  auto secs = sections_of({{2, 0}, {1, 0}, {1, 0}});
  secs[0].migratable = false;
  const TargetPlanner planner;
  const TargetPlan plan = planner.plan(secs, {0, 1}, {0.8, 0.0});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.assignment[0], 0);
  // Both light sections leave the saturated home.
  EXPECT_EQ(plan.assignment[1], 1);
  EXPECT_EQ(plan.assignment[2], 1);
}

TEST(TargetPlanner, PinnedStrayOutsideCandidatesIsInfeasible) {
  // A non-migratable section homed on a shard missing from the candidate
  // set (e.g. the shard is retiring): the plan leaves it and says so.
  auto secs = sections_of({{1, 5}, {1, 0}});
  secs[0].migratable = false;
  const TargetPlanner planner;
  const TargetPlan plan = planner.plan(secs, {0, 1}, {});
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.assignment[0], 5);  // left in place
}

// ---- PlanScheduler ---------------------------------------------------------

TEST(PlanScheduler, DrainsADestinationBeforeFillingIt) {
  // Shard 1 is both a destination (of m0) and a source (of m1): filling it
  // first would spike it past the watermark. The safe order runs m1 first.
  std::vector<PlannedMove> moves;
  moves.push_back(PlannedMove{0, 0, 1, 0.3});  // 0 -> 1, would hit 1.1
  moves.push_back(PlannedMove{1, 1, 2, 0.4});  // 1 -> 2, drains shard 1
  const PlanScheduler sched;
  const ScheduledPlan plan = sched.schedule(moves, {0.9, 0.8, 0.2});
  ASSERT_TRUE(plan.complete);
  ASSERT_EQ(plan.ordered.size(), 2u);
  EXPECT_EQ(plan.ordered[0].section, 1u);
  EXPECT_EQ(plan.ordered[1].section, 0u);
  ASSERT_EQ(plan.batches.size(), 2u);  // not disjoint: two batches
}

TEST(PlanScheduler, BatchesDisjointMovesTogether) {
  std::vector<PlannedMove> moves;
  moves.push_back(PlannedMove{0, 0, 1, 0.2});
  moves.push_back(PlannedMove{1, 2, 3, 0.2});  // disjoint shard set
  const PlanScheduler sched;
  const ScheduledPlan plan = sched.schedule(moves, {0.6, 0.1, 0.6, 0.1});
  ASSERT_TRUE(plan.complete);
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].size(), 2u);
}

TEST(PlanScheduler, RefusesToForceAViolatingMove) {
  // Every destination sits above the watermark: nothing is schedulable and
  // the plan says so instead of emitting a hot-spot transit.
  std::vector<PlannedMove> moves;
  moves.push_back(PlannedMove{0, 0, 1, 0.2});
  const PlanScheduler sched;
  const ScheduledPlan plan = sched.schedule(moves, {0.9, 0.94});
  EXPECT_FALSE(plan.complete);
  EXPECT_TRUE(plan.ordered.empty());
}

/// Deterministic LCG so the property instances are reproducible.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : s_(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return s_ >> 33;
  }
  double uniform() {
    return static_cast<double>(next() % 10000) / 10000.0;
  }
  int pick(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t s_;
};

TEST(PlanScheduler, NeverBreachesTheWatermarkOnRandomInstances) {
  const PlanScheduler sched;

  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Lcg rng(seed + 1);
    const int n_shards = 2 + rng.pick(6);
    std::vector<double> busy;
    for (int s = 0; s < n_shards; ++s) busy.push_back(rng.uniform() * 0.9);

    const int n_moves = 1 + rng.pick(10);
    std::vector<PlannedMove> moves;
    for (int i = 0; i < n_moves; ++i) {
      PlannedMove m;
      m.section = static_cast<std::size_t>(i);
      m.from = rng.pick(n_shards);
      do {
        m.to = rng.pick(n_shards);
      } while (m.to == m.from);
      m.load = rng.uniform() * 0.4;
      moves.push_back(m);
    }

    const ScheduledPlan plan = sched.schedule(moves, busy);

    // Replay the schedule move by move against projected loads: no move
    // may lift its destination past the watermark at the instant it runs.
    std::vector<double> proj = busy;
    for (const PlannedMove& m : plan.ordered) {
      const auto to = static_cast<std::size_t>(m.to);
      const auto from = static_cast<std::size_t>(m.from);
      EXPECT_LE(proj[to] + m.load, kHotspotWatermark + 1e-9)
          << "seed " << seed << " section " << m.section;
      proj[from] -= m.load;
      proj[to] += m.load;
    }

    // Batches contain pairwise-disjoint {from, to} shard sets.
    std::size_t flattened = 0;
    for (const std::vector<PlannedMove>& batch : plan.batches) {
      std::set<int> used;
      for (const PlannedMove& m : batch) {
        EXPECT_TRUE(used.insert(m.from).second) << "seed " << seed;
        EXPECT_TRUE(used.insert(m.to).second) << "seed " << seed;
      }
      flattened += batch.size();
    }
    EXPECT_EQ(flattened, plan.ordered.size());

    // complete <=> every input move was scheduled.
    EXPECT_EQ(plan.complete, plan.ordered.size() == moves.size())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace infopipe::balance
