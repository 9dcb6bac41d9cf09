#include "balance/planner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

namespace infopipe::balance {

namespace {

/// Slack for load comparisons.
constexpr double kEps = 1e-9;

}  // namespace

double busy_of(const std::vector<double>& busy, int shard) {
  if (shard < 0 || static_cast<std::size_t>(shard) >= busy.size()) return 0.0;
  return std::max(0.0, busy[static_cast<std::size_t>(shard)]);
}

std::vector<SectionDesc> TargetPlanner::describe(
    shard::ShardedRealization& sr) {
  std::vector<SectionDesc> out;
  out.reserve(sr.section_count());
  for (std::size_t s = 0; s < sr.section_count(); ++s) {
    SectionDesc d;
    d.id = s;
    d.threads = sr.section_threads(s);
    d.home = sr.shard_of_section(s);
    d.migratable = sr.section_migratable(s);
    out.push_back(d);
  }
  return out;
}

TargetPlan TargetPlanner::plan(shard::ShardedRealization& sr,
                               const LoadSnapshot& load,
                               const std::vector<int>& shards) {
  return plan(describe(sr), shards, load.busy);
}

TargetPlan TargetPlanner::plan(const std::vector<SectionDesc>& sections,
                               const std::vector<int>& shards,
                               const std::vector<double>& busy) {
  // Weights: each home shard's measured busy fraction, attributed to its
  // resident sections proportionally to planned threads. Homes with no
  // measurable load contribute zero-weight sections, which the sticky pass
  // keeps in place.
  std::map<int, int> threads_at;  // home -> planned threads there
  double measured = 0.0;
  for (const SectionDesc& s : sections) {
    threads_at[s.home] += std::max(1, s.threads);
    measured += busy_of(busy, s.home);
  }
  std::vector<PlaceItem> items;
  items.reserve(sections.size());
  for (const SectionDesc& s : sections) {
    const double threads = std::max(1, s.threads);
    items.push_back(PlaceItem{
        measured > kEps ? busy_of(busy, s.home) * threads / threads_at[s.home]
                        : threads,
        s.home, s.migratable});
  }

  const Placement placed = place(items, shards);
  TargetPlan out;
  out.assignment = placed.shard;
  out.feasible = placed.feasible;
  // Current attributed load per candidate shard, and the plan's.
  std::map<int, double> current;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (std::find(shards.begin(), shards.end(), sections[i].home) !=
        shards.end()) {
      current[sections[i].home] += items[i].weight;
    }
  }
  for (const auto& [shard, load] : current) {
    out.current_makespan = std::max(out.current_makespan, load);
  }
  for (const double b : placed.load) out.makespan = std::max(out.makespan, b);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (out.assignment[i] != sections[i].home) {
      out.moves.push_back(PlannedMove{sections[i].id, sections[i].home,
                                      out.assignment[i], items[i].weight});
    }
  }
  return out;
}

ScheduledPlan PlanScheduler::schedule(const std::vector<PlannedMove>& moves,
                                      const std::vector<double>& busy) {
  ScheduledPlan out;
  if (moves.empty()) return out;

  // Projected load per shard, keyed by absolute id (plans may span shards
  // beyond the busy vector — freshly added ones read 0).
  int max_shard = 0;
  for (const PlannedMove& m : moves) {
    max_shard = std::max({max_shard, m.from, m.to});
  }
  max_shard = std::max(max_shard, static_cast<int>(busy.size()) - 1);
  std::vector<double> proj(static_cast<std::size_t>(max_shard) + 1, 0.0);
  for (std::size_t s = 0; s < proj.size(); ++s) {
    proj[s] = busy_of(busy, static_cast<int>(s));
  }

  std::vector<PlannedMove> pending = moves;
  while (!pending.empty()) {
    // A move is eligible only while its destination, with the move's load
    // added, stays under the watermark — a shard that is both a past
    // destination and a future source must drain before it takes more.
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const PlannedMove& m = pending[i];
      if (proj[static_cast<std::size_t>(m.to)] + m.load <=
          kHotspotWatermark + kEps) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) {
      out.complete = false;  // retry after the topology drains
      break;
    }
    // Hottest source first — relieving the worst shard earliest is what
    // frees up the most follow-on moves. Tie: lowest section id.
    std::stable_sort(eligible.begin(), eligible.end(),
                     [&](std::size_t a, std::size_t b) {
                       const double la = proj[static_cast<std::size_t>(
                           pending[a].from)];
                       const double lb = proj[static_cast<std::size_t>(
                           pending[b].from)];
                       if (la != lb) return la > lb;
                       return pending[a].section < pending[b].section;
                     });
    // Pack a batch of shard-disjoint moves; disjointness keeps every
    // projection exact whatever order the batch executes in.
    std::vector<bool> used(proj.size(), false);
    std::vector<PlannedMove> batch;
    std::vector<std::size_t> taken;
    for (std::size_t i : eligible) {
      const PlannedMove& m = pending[i];
      const auto f = static_cast<std::size_t>(m.from);
      const auto d = static_cast<std::size_t>(m.to);
      if (used[f] || used[d]) continue;
      used[f] = used[d] = true;
      batch.push_back(m);
      taken.push_back(i);
    }
    for (const PlannedMove& m : batch) {
      proj[static_cast<std::size_t>(m.from)] -= m.load;
      proj[static_cast<std::size_t>(m.to)] += m.load;
      out.ordered.push_back(m);
    }
    std::sort(taken.begin(), taken.end(), std::greater<>());
    for (std::size_t i : taken) {
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    out.batches.push_back(std::move(batch));
  }
  return out;
}

}  // namespace infopipe::balance
