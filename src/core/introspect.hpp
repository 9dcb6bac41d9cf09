// Structured introspection: the value types behind describe()/stats_report().
//
// The realization's self-description used to be prose assembled on the fly;
// tests and tools had to parse strings. These types carry the same facts as
// data: PlanInfo is what the planner decided (sections, modes, coroutine
// allocation), StatsSnapshot is what the running pipeline has done so far
// (items pumped, buffer traffic). describe() and stats_report() are now thin
// renderers over them — to_string() here produces the exact text they always
// produced, and to_json() feeds the --metrics-out dumps of the benches.
//
// StatsSnapshot is built from pure reads of counters that the middleware
// only mutates between dispatch points, so taking one from a control-event
// listener while the flow is blocked is safe and consistent (see
// Realization::stats_snapshot()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/component.hpp"
#include "core/polarity.hpp"
#include "rt/types.hpp"

namespace infopipe {

namespace obs {
struct MetricsSnapshot;
}  // namespace obs

class Pipeline;
struct Plan;

/// What the planner decided for one realization: the section structure and
/// the activity style chosen for every hosted component.
struct PlanInfo {
  struct Member {
    std::string name;
    Style style = Style::kFunction;
    FlowMode mode = FlowMode::kPush;
    bool coroutine = false;  ///< got its own thread
    bool shared = false;     ///< inside a serialized shared region
  };

  struct SectionInfo {
    std::string driver;
    Style driver_style = Style::kActive;
    int thread_count = 0;  ///< driver's thread + its coroutines
    std::vector<Member> members;
  };

  std::size_t components = 0;  ///< components in the pipeline graph
  std::size_t threads = 0;     ///< user-level threads spawned in total
  std::vector<SectionInfo> sections;

  [[nodiscard]] std::size_t coroutine_count() const;
  [[nodiscard]] const SectionInfo* section(std::string_view driver) const;
  [[nodiscard]] const Member* member(std::string_view name) const;
};

/// Per-driver progress counters at snapshot time.
struct DriverStats {
  std::string name;
  std::uint64_t items_pumped = 0;
  std::uint64_t deadline_misses = 0;
  bool running = false;
};

/// Per-buffer traffic counters at snapshot time. The invariant
/// `fill == puts - takes` holds at every dispatch point (a blocked put has
/// neither queued the item nor counted it yet).
struct BufferStats {
  std::string name;
  std::size_t fill = 0;
  std::size_t capacity = 0;
  std::size_t max_fill = 0;
  std::uint64_t puts = 0;
  std::uint64_t takes = 0;
  std::uint64_t drops = 0;
  std::uint64_t nil_returns = 0;
  std::uint64_t put_blocks = 0;
  std::uint64_t take_blocks = 0;
};

/// Traffic counters of a buffer cut across shards (ip_shard), at snapshot
/// time. The flow counters are the buffer's own BufferStats row, so tooling
/// reads one format for cut and uncut buffers. They are sampled from
/// atomics while both shards run, so `fill == puts - takes` is only
/// approximate then. The shard pair and the cross-shard wakeup count are
/// the only cut-specific facts.
struct ChannelStats {
  BufferStats flow;
  int from_shard = 0;
  int to_shard = 0;
  std::uint64_t wakeups = 0;  ///< cross-shard wakeup posts
};

/// A consistent picture of the realized pipeline's progress, timestamped by
/// the runtime clock (deterministic under the virtual clock). The channels
/// vector is populated only for sharded realizations.
struct StatsSnapshot {
  rt::Time when = 0;
  std::vector<DriverStats> drivers;
  std::vector<BufferStats> buffers;
  std::vector<ChannelStats> channels;

  [[nodiscard]] const DriverStats* driver(std::string_view name) const;
  [[nodiscard]] const BufferStats* buffer(std::string_view name) const;
  [[nodiscard]] const ChannelStats* channel(std::string_view name) const;
};

/// Builds the PlanInfo for a planned pipeline: one SectionInfo per plan
/// section, `threads` recorded as the spawn total. This is the single
/// source of the "what the planner decided" data — Realization::plan_info()
/// calls it with its own thread count, ShardedRealization::plan_info() with
/// the plan's total across shards, and the session layer's SharedPlan caches
/// one copy that every stamped session shares instead of re-planning.
[[nodiscard]] PlanInfo plan_info_of(const Pipeline& p, const Plan& plan,
                                    std::size_t threads);

// -- renderers -----------------------------------------------------------------

/// The text Realization::describe() returns.
[[nodiscard]] std::string to_string(const PlanInfo& p);
/// The text Realization::stats_report() returns.
[[nodiscard]] std::string to_string(const StatsSnapshot& s);

[[nodiscard]] std::string to_json(const PlanInfo& p);
[[nodiscard]] std::string to_json(const StatsSnapshot& s);

/// Appends the snapshot's numbers as rows of a metrics snapshot
/// (`pipe.driver.<name>.*`, `pipe.buffer.<name>.*`). This is what the
/// realization's registry collector runs at snapshot time.
void publish(const StatsSnapshot& s, obs::MetricsSnapshot& out);

}  // namespace infopipe
