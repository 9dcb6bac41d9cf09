// The composition planner: automatic thread and coroutine allocation (§3.3,
// §4, Figure 9).
//
// From the static pipeline graph the planner determines
//   * the flow mode (push/pull) of every edge, by induction from the fixed
//     polarities of pumps, buffers and endpoints through the polymorphic
//     (α→α) filters,
//   * the pipeline *sections*: maximal regions between passive components,
//     each driven by exactly one pump / active source / active sink,
//   * which components of a section can share the driver's thread via
//     direct function calls, and which need a coroutine: "Active object
//     implementations provide a thread-like main function. Passive objects
//     are consumers implementing push, producers implementing pull, or are
//     based on a conversion function. In push mode, consumers and functions
//     are called directly, and in pull mode producers and functions are
//     called directly. Otherwise, a coroutine is required."
//
// The planner is pure: it inspects the graph and produces a Plan without
// creating any threads, so allocation decisions are unit-testable (the
// Figure 9 configurations a-h are checked in tests/core_planner_test.cpp).
//
// Batching (PumpSpec::max_batch, ARCHITECTURE §15) is orthogonal to
// everything decided here: spans ride the same sections, drivers and
// coroutine assignments, and whether a given edge actually moves bursts is
// resolved at wiring/run time (a span link is present and max_batch > 1),
// never in the Plan. A batched pump plans identically to a per-item one.
#pragma once

#include <map>
#include <vector>

#include "core/pipeline.hpp"
#include "core/polarity.hpp"
#include "core/pump.hpp"
#include "core/typespec.hpp"

namespace infopipe {

struct Plan {
  struct Hosted {
    Component* comp = nullptr;
    FlowMode mode = FlowMode::kPush;
    bool needs_coroutine = false;
    /// Part of a region reachable from several drivers (downstream of a
    /// MergeTee / upstream of a BalancingSwitch); the realization serializes
    /// access to it.
    bool shared = false;
  };

  /// One driver's domain: the components it operates between the adjacent
  /// passive boundaries.
  struct Section {
    Driver* driver = nullptr;
    std::vector<Hosted> members;  ///< excludes the driver and the boundaries

    [[nodiscard]] int coroutine_count() const {
      int n = 0;
      for (const Hosted& h : members) n += h.needs_coroutine ? 1 : 0;
      return n;
    }
    /// Threads used by this section, counting the driver's own (§4 counts
    /// the driver's thread as part of the coroutine set).
    [[nodiscard]] int thread_count() const { return 1 + coroutine_count(); }
  };

  std::vector<Section> sections;
  /// Resolved mode per edge (keyed by pointer into Pipeline::edges()).
  std::map<const Edge*, FlowMode> edge_mode;
  /// Flow description propagated onto each edge.
  std::map<const Edge*, Typespec> edge_spec;

  [[nodiscard]] int total_threads() const {
    int n = 0;
    for (const Section& s : sections) n += s.thread_count();
    return n;
  }
  [[nodiscard]] int total_coroutines() const {
    int n = 0;
    for (const Section& s : sections) n += s.coroutine_count();
    return n;
  }

  [[nodiscard]] const Section* section_of(const Driver& d) const {
    for (const Section& s : sections) {
      if (s.driver == &d) return &s;
    }
    return nullptr;
  }
  [[nodiscard]] const Hosted* hosted_info(const Component& c) const {
    for (const Section& s : sections) {
      for (const Hosted& h : s.members) {
        if (h.comp == &c) return &h;
      }
    }
    return nullptr;
  }
};

/// Analyze the pipeline. Throws CompositionError with a diagnostic naming
/// the offending components when the pipeline is ill-formed (no driver in a
/// section, two drivers without an intervening buffer, dangling ports,
/// push-driven pull-only tees, incompatible Typespecs, cycles).
[[nodiscard]] Plan plan(const Pipeline& p);

// ---- Multi-core sharding (ip_shard) -----------------------------------------

/// Assignment of whole sections to shards. Cuts happen only at passive
/// boundaries (buffers between sections) — never inside a coroutine set —
/// so the per-section single-threading invariants of §3.2 hold unchanged on
/// every shard.
struct Partition {
  /// A buffer whose two neighbouring sections landed on different shards;
  /// the sharded realization replaces it with a cross-shard channel.
  struct Cut {
    Component* buffer = nullptr;
    std::size_t upstream_section = 0;    ///< index into Plan::sections
    std::size_t downstream_section = 0;  ///< index into Plan::sections
  };

  int n_shards = 1;
  /// Parallel to Plan::sections: which shard hosts each section.
  std::vector<int> shard_of_section;
  std::vector<Cut> cuts;
  /// Parallel to Plan::sections: may the rebalancer move this section alone?
  /// Pinned (false): sections clustered with others — shared merge/balance
  /// regions and colocation constraints must move as a unit or not at all —
  /// and sections hosting a component whose migratable() is false (netpipe
  /// endpoints, audio devices, anything on an external I/O path).
  std::vector<char> migratable_section;

  [[nodiscard]] bool migratable(std::size_t section) const {
    return section < migratable_section.size() &&
           migratable_section[section] != 0;
  }

  /// Shard of the section a driver/member belongs to; -1 for components
  /// outside every section (boundaries).
  [[nodiscard]] int shard_of(const Plan& plan, const Component& c) const;

  /// Threads per shard; sums to plan.total_threads() (conservation is a
  /// partition invariant the tests assert).
  [[nodiscard]] std::vector<int> threads_per_shard(const Plan& plan) const;
};

/// Splits a plan across `n_shards` shards. Sections are never split;
/// sections connected through anything but a buffer (merge/balance shared
/// regions, where an edge runs directly between two drivers' domains) are
/// clustered together, as are the sections around each `colocate` pair of
/// components (the sharded realization uses this to keep buffers whose
/// policies a channel cannot reproduce, e.g. kDropOldest, on one shard).
/// Clusters are balanced by thread count (deterministic longest-processing-
/// time greedy). Shards may end up empty when there are fewer clusters.
[[nodiscard]] Partition partition(
    const Plan& plan, int n_shards,
    const std::vector<std::pair<const Component*, const Component*>>&
        colocate = {});

/// The cut set induced by an arbitrary section→shard assignment: every
/// boundary component (buffer) whose upstream and downstream sections sit on
/// different shards, ordered deterministically by section index. partition()
/// uses this for its initial placement; live migration recomputes it after
/// every assignment change to decide which channels to create, rebind or
/// collapse.
[[nodiscard]] std::vector<Partition::Cut> cuts_for(
    const Plan& plan, const std::vector<int>& shard_of_section);

}  // namespace infopipe
