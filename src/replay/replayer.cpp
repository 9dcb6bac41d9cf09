#include "replay/replayer.hpp"

#include <algorithm>
#include <map>

#include "rt/clock.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::replay {

namespace {

/// Grid resolution: enough windows that recorded orderings and migration
/// times land near their recorded positions, few enough that a replay is
/// hundreds of step_until calls, not millions.
constexpr std::int64_t kGridWindows = 256;

/// One structural event to re-apply at its recorded instant: a migration
/// (from its kQuiesce frame — the phase that marks when the decision struck
/// the live run) or an elastic topology change (kScale frame). Both kinds
/// merge into ONE time-sorted list: a retire frame must re-apply after the
/// migrations that evacuated the shard, and time order is exactly what the
/// recorder captured.
struct PlannedEvent {
  enum class Kind { kMigrate, kAddShard, kRetireShard };
  std::int64_t t = 0;
  Kind kind = Kind::kMigrate;
  std::uint32_t section = 0;  ///< kMigrate
  int to = -1;                ///< kMigrate
  int shard = -1;             ///< kAddShard / kRetireShard
};

}  // namespace

ReplayResult Replayer::run(const Builder& build) {
  const int n_shards = std::max<int>(1, trace_.meta.n_shards);

  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(n_shards, opt);

  // Declared after the group so it is destroyed first (realizations
  // reference their shard runtimes).
  Build b = build(group);
  if (!b.flows) {
    throw TraceError("replay builder returned no flow reader");
  }

  // The structural plan: migrations and scale events, merged and sorted by
  // recorded time (stable, so same-instant events keep their frame order).
  std::vector<PlannedEvent> events;
  for (const Frame& f : trace_.frames) {
    if (f.frame_kind() == FrameKind::kMigration &&
        f.aux16 == static_cast<std::uint16_t>(MigrationPhase::kQuiesce)) {
      PlannedEvent e;
      e.t = f.t;
      e.kind = PlannedEvent::Kind::kMigrate;
      e.section = f.aux32;
      e.to = static_cast<int>(f.b);
      events.push_back(e);
    } else if (f.frame_kind() == FrameKind::kScale) {
      PlannedEvent e;
      e.t = f.t;
      e.kind = f.aux16 == 0 ? PlannedEvent::Kind::kAddShard
                            : PlannedEvent::Kind::kRetireShard;
      e.shard = static_cast<int>(f.a);
      events.push_back(e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const PlannedEvent& x, const PlannedEvent& y) {
                     return x.t < y.t;
                   });

  if (!events.empty() && b.real == nullptr) {
    throw TraceError(
        "trace contains migrations or scale events but the builder exposed "
        "no realization");
  }

  ReplayResult r;
  const std::int64_t end = std::max<std::int64_t>(trace_.meta.end_time_ns,
                                                  rt::milliseconds(1));
  const std::int64_t quantum =
      std::max<std::int64_t>(end / kGridWindows, rt::milliseconds(1));

  // Per-window shard order from the recorded timeline: shards take their
  // replay turns in the order their first recorded frame of that window
  // appears; silent shards follow in index order. Hop frames decide
  // nothing and stay out of it. frame_at walks the trace once overall
  // (frames are time-sorted up to mutex-acquisition jitter, which a sort
  // makes exact).
  std::vector<Frame> timeline;
  timeline.reserve(trace_.frames.size());
  for (const Frame& f : trace_.frames) {
    if (f.frame_kind() != FrameKind::kHop) timeline.push_back(f);
  }
  std::stable_sort(
      timeline.begin(), timeline.end(),
      [](const Frame& x, const Frame& y) { return x.t < y.t; });
  std::size_t cursor = 0;

  rt::Time t = 0;
  bool done = false;
  std::size_t ev_cursor = 0;
  // 4x slack past the recorded end: a virtual re-execution of a clocked
  // flow needs about the recorded duration, but owes nothing to wall-time
  // effects (GC-free, no preemption), so the bound is generous.
  const std::int64_t horizon = end * 4 + rt::seconds(1);
  while (t < horizon && !done) {
    t += quantum;
    // Structural events strictly in recorded order: an add must precede the
    // frames attributed to the new shard, a retire must follow the
    // evacuating migrations.
    for (; ev_cursor < events.size() && events[ev_cursor].t <= t;
         ++ev_cursor) {
      const PlannedEvent& e = events[ev_cursor];
      switch (e.kind) {
        case PlannedEvent::Kind::kMigrate:
          b.real->migrate_section(e.section, e.to);
          ++r.migrations_applied;
          break;
        case PlannedEvent::Kind::kAddShard: {
          const int got = group.add_shard();
          if (got != e.shard) {
            throw TraceError("replay add_shard produced shard " +
                             std::to_string(got) + ", trace recorded " +
                             std::to_string(e.shard));
          }
          b.real->sync_topology();
          ++r.scales_applied;
          break;
        }
        case PlannedEvent::Kind::kRetireShard:
          group.retire_shard(e.shard);
          ++r.scales_applied;
          break;
      }
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(group.size()));
    for (; cursor < timeline.size() && timeline[cursor].t <= t; ++cursor) {
      const std::uint8_t s = timeline[cursor].shard;
      if (static_cast<int>(s) < group.size() &&
          group.is_live(static_cast<int>(s)) &&
          std::find(order.begin(), order.end(), static_cast<int>(s)) ==
              order.end()) {
        order.push_back(static_cast<int>(s));
      }
    }
    for (const int s : group.live_shards()) {
      if (std::find(order.begin(), order.end(), s) == order.end()) {
        order.push_back(s);
      }
    }
    group.step_until(t, order);
    ++r.steps;
    done = b.real != nullptr && b.real->finished() && t >= end;
  }
  r.virtual_end = t;

  // Unapplied events (recorded after the last frame horizon) would mean
  // the re-execution diverged structurally; surface that as failure.
  const bool all_events = ev_cursor == events.size();

  const std::vector<Trace::Flow> got = b.flows();
  std::map<std::string, const Trace::Flow*> got_by_name;
  for (const Trace::Flow& f : got) got_by_name[f.name] = &f;
  for (const Trace::Flow& want : trace_.flows) {
    const auto it = got_by_name.find(want.name);
    if (it == got_by_name.end()) {
      r.mismatches.push_back(ReplayResult::Mismatch{
          want.name, want.digest, 0, want.items, 0});
      continue;
    }
    const Trace::Flow& have = *it->second;
    if (have.digest != want.digest || have.items != want.items) {
      r.mismatches.push_back(ReplayResult::Mismatch{
          want.name, want.digest, have.digest, want.items, have.items});
    }
  }

  r.ok = r.mismatches.empty() && all_events && !trace_.flows.empty() &&
         (b.real == nullptr || b.real->finished());
  r.summary = std::string(r.ok ? "replay OK" : "replay MISMATCH") + ": " +
              std::to_string(trace_.flows.size()) + " flows, " +
              std::to_string(r.migrations_applied) + " migrations, " +
              std::to_string(r.scales_applied) + " scale events, " +
              std::to_string(r.steps) + " windows to t=" +
              std::to_string(r.virtual_end / 1000000) + " ms";
  for (const ReplayResult::Mismatch& m : r.mismatches) {
    r.summary += "; flow '" + m.name + "' want " +
                 std::to_string(m.want_digest) + "/" +
                 std::to_string(m.want_items) + " items, got " +
                 std::to_string(m.got_digest) + "/" +
                 std::to_string(m.got_items);
  }

  // Tear the rebuilt pipeline down before the group leaves scope.
  b.flows = nullptr;
  b.real = nullptr;
  b.state.reset();
  return r;
}

}  // namespace infopipe::replay
