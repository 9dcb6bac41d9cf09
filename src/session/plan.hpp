// ip_session shared plan: analyze the engine pipeline ONCE, stamp sessions
// out of it forever after.
//
// The middleware's classic path charges every flow a full plan + realize:
// graph analysis, section/coroutine allocation, thread creation. For a
// server holding 100k live flows that per-use cost is the scalability
// ceiling, and it is pure waste — every session runs the SAME pipeline
// shape. SharedPlan hoists that work: analyze() builds the engine pipeline
// prototype, runs the planner over it, and caches the resulting PlanInfo as
// one immutable value. SessionTable then realizes one engine per shard from
// this spec (n_shards planner runs total, at construction), and every
// open() after that is a constant-time stamp: a slot issued on the home
// shard's engine plus a queue push, sharing the one PlanInfo. plan_info()
// is what every session's introspection reports — there is exactly one
// plan, by construction.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/component.hpp"
#include "core/introspect.hpp"
#include "rt/types.hpp"

namespace infopipe::session {

/// Builds the application's mid-stages for one shard engine (filters,
/// transforms — whatever the flow does between source and sink). Called
/// once per shard at table construction with the shard index, and once
/// with shard = -1 for the plan-analysis prototype; every invocation must
/// produce the same pipeline shape (same count and styles), which is what
/// makes the single shared PlanInfo honest. May be empty (no mid-stages).
using StageFactory =
    std::function<std::vector<std::unique_ptr<Component>>(int shard)>;

/// Everything that parameterizes a shard engine, fixed at analyze() time.
struct EngineSpec {
  StageFactory stages;  ///< optional application mid-stages

  /// Ceiling on how long an idle engine sleeps between wheel checks — and
  /// therefore on admission latency, since the driver protocol does not
  /// wake for the acceptor's queue pushes.
  double idle_poll_hz = 200.0;

  /// Per-shard QoS loop (SessionTable::start_loops): hold the engine's
  /// item lag (LatencySensor "sess.lag", due-to-arrival, milliseconds) at
  /// the setpoint by actuating the ClassGovernor's hint in
  /// [min_mult, 1.0]. Gold never degrades; bronze follows the hint.
  double lag_setpoint_ms = 5.0;
  rt::Time loop_period = rt::milliseconds(20);
  double loop_kp = 0.02;
  double loop_ki = 0.05;
  double min_mult = 0.1;
};

/// The one immutable plan all sessions share. Create via analyze(); hold by
/// shared_ptr<const ...> — the table keeps it alive, sessions reference it.
class SharedPlan {
 public:
  /// Plans the engine pipeline this spec describes (prototype components
  /// are built, planned and discarded — nothing is realized) and caches
  /// the PlanInfo. Throws CompositionError when the stage factory yields a
  /// shape the planner rejects.
  [[nodiscard]] static std::shared_ptr<const SharedPlan> analyze(
      EngineSpec spec);

  /// What the planner decided, as data — identical for every session.
  [[nodiscard]] const PlanInfo& info() const noexcept { return info_; }
  [[nodiscard]] const EngineSpec& spec() const noexcept { return spec_; }

 private:
  SharedPlan(EngineSpec spec, PlanInfo info)
      : spec_(std::move(spec)), info_(std::move(info)) {}

  EngineSpec spec_;
  PlanInfo info_;
};

}  // namespace infopipe::session
