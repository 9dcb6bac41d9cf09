// Rebalancer: the closed loop over accounting, planning and migration — and,
// when elastic, over the shard topology itself (ip_balance).
//
// Two driving modes, mirroring ShardGroup's:
//
//   * manual — the caller invokes step() whenever it likes (tests inject
//     loads through accountant().note_busy_sample() and step in lockstep
//     with ShardGroup::step_until);
//   * autonomous — launch() gives the rebalancer its own rt::Runtime on its
//     own kernel thread (real clock) and a fb::PeriodicTask whose body is
//     step(). The rebalancer MUST NOT run on a shard's kernel thread: a
//     migration issues ShardGroup::run_on calls, which would self-deadlock
//     when issued from the shard they target. A dedicated thread — like the
//     feedback loops' home-shard placement, but outside the group — keeps
//     the control plane off the data plane.
//
// Decisions come from the TargetPlanner/PlanScheduler pair (planner.hpp):
// each replan computes a full target assignment by LPT over measured busy
// shares and schedules the multi-move delta so no intermediate placement
// breaches the hot-spot watermark. step() still executes AT MOST ONE move —
// the scheduled plan drains one move per control period, each re-validated
// against the live topology (section still where the plan left it, target
// still live) and dropped when the world moved underneath it. Replanning is
// gated by the same hysteresis (min_imbalance) and cooldown the old
// one-move policy used, so a balanced flow is never churned.
//
// Elastic mode (opt-in via ElasticOptions::enabled):
// hysteresis counters over the live shards' mean busy fraction drive
// ShardGroup::add_shard / retire_shard. Scale-up grows the group and
// replans onto the new shard; scale-down evacuates the least-busy live
// shard (only when everything on it is migratable) and retires it. In
// autonomous mode scale operations travel as rt::msg::kBalanceScaleUp /
// kBalanceScaleDown messages to a dedicated scaler thread on the private
// runtime — serialized, off the sampling tick — and kBalanceApplyPlan
// drains the post-scale plan without waiting out the sampling period.
//
// Observability: the rebalancer owns a private obs::MetricsRegistry
// (balance.steps / balance.imbalance / balance.migration.* /
// balance.scale.*). The registry class is not thread-safe, so every access
// — step() updating it, metrics_snapshot() reading it — happens under one
// internal mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "balance/accountant.hpp"
#include "balance/migration.hpp"
#include "balance/planner.hpp"
#include "balance/policy.hpp"
#include "feedback/toolkit.hpp"
#include "obs/metrics.hpp"
#include "rt/doorbell.hpp"
#include "rt/runtime.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::balance {

/// Autoscaling knobs. Off by default: a rebalancer only changes the shard
/// count when the embedding application opted in.
struct ElasticOptions {
  bool enabled = false;
  /// Scale up after the live shards' mean busy fraction stayed at or above
  /// this for scale_up_steps consecutive samples.
  double scale_up_watermark = 0.85;
  int scale_up_steps = 3;
  /// Scale down after the mean stayed at or below this for
  /// scale_down_steps consecutive samples (slower than up: adding capacity
  /// is cheap, draining a shard is not).
  double scale_down_watermark = 0.25;
  int scale_down_steps = 5;
  /// Samples to sit out after any scale event, so the EWMA re-converges on
  /// the new topology before the next verdict.
  int cooldown_steps = 10;
  int min_shards = 1;
  int max_shards = shard::ShardGroup::kMaxShards;
};

struct RebalancerOptions {
  rt::Time period = rt::milliseconds(200);  ///< autonomous sampling period
  AccountantOptions accountant;
  /// min_imbalance / migration_cost / cooldown_steps gate replanning just
  /// as they gated the old single-move policy.
  PolicyOptions policy;
  ProtocolOptions protocol;
  TargetPlannerOptions planner;
  PlanSchedulerOptions scheduler;
  ElasticOptions elastic;
  shard::Topology topology;  ///< defaults to flat; pass Topology::detect()
};

class Rebalancer {
 public:
  using Options = RebalancerOptions;

  explicit Rebalancer(shard::ShardedRealization& sr,
                      Options opts = Options());
  ~Rebalancer();

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// One control cycle: sample loads, update the scale hysteresis, then
  /// either execute the next move of the pending scheduled plan or — when
  /// the queue is empty, the spread exceeds the hysteresis band and the
  /// cooldown has passed — replan and execute the new plan's first move.
  /// Returns the migration report when a move was attempted. Call from any
  /// thread EXCEPT a shard's kernel thread.
  std::optional<MigrationReport> step();

  /// For load injection (note_busy_sample) and inspection.
  [[nodiscard]] LoadAccountant& accountant() noexcept { return accountant_; }

  /// Starts the autonomous mode: a dedicated kernel thread hosting a
  /// private runtime whose PeriodicTask calls step() every `period`, plus
  /// the scaler thread serving kBalanceScaleUp/Down/ApplyPlan.
  /// No-op if already launched.
  void launch();
  /// Stops the autonomous thread (no-op if not launched). Also called by
  /// the destructor.
  void stop();
  [[nodiscard]] bool running() const noexcept { return host_.joinable(); }

  [[nodiscard]] std::uint64_t steps() const noexcept {
    return steps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t migrations_attempted() const noexcept {
    return attempts_.load(std::memory_order_relaxed);
  }
  /// Topology changes this rebalancer drove.
  [[nodiscard]] std::uint64_t scale_ups() const noexcept {
    return scale_ups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scale_downs() const noexcept {
    return scale_downs_.load(std::memory_order_relaxed);
  }
  /// Moves of the current scheduled plan not yet executed.
  [[nodiscard]] std::size_t pending_moves() const noexcept {
    return pending_.size();
  }

  /// Snapshot of the rebalancer's private balance.* registry.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

 private:
  /// Executes the next still-valid pending move, if any.
  std::optional<MigrationReport> run_pending();
  /// Plans + schedules when the live spread warrants it; fills pending_.
  void replan(const LoadSnapshot& load);
  /// Updates the hysteresis streaks and fires a scale request when due.
  void maybe_scale(const LoadSnapshot& load);
  void do_scale_up();
  void do_scale_down(int victim);
  /// -1 when no live shard can be drained (pinned sections, min_shards).
  int pick_scale_down_victim(const LoadSnapshot& load) const;
  void record_report(const MigrationReport& r);

  shard::ShardedRealization* sr_;
  Options opts_;
  LoadAccountant accountant_;
  TargetPlanner planner_;
  PlanScheduler scheduler_;
  MigrationProtocol protocol_;

  /// Scheduled moves awaiting execution (one per step). Touched only from
  /// the stepping thread (manual caller, or the private runtime's ULTs —
  /// which share one kernel thread).
  std::deque<PlannedMove> pending_;
  int cooldown_ = 0;        ///< steps until the next replan is allowed
  int up_streak_ = 0;       ///< consecutive samples above scale_up_watermark
  int down_streak_ = 0;     ///< consecutive samples below scale_down_watermark
  int scale_cooldown_ = 0;  ///< steps until the next scale event is allowed

  std::mutex metrics_mu_;  ///< guards metrics_ (registry is not thread-safe)
  obs::MetricsRegistry metrics_;

  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> attempts_{0};
  std::atomic<std::uint64_t> scale_ups_{0};
  std::atomic<std::uint64_t> scale_downs_{0};

  // Autonomous mode. The task is constructed and started before the host
  // thread exists (single-threaded, so the non-thread-safe spawn/send are
  // fine) and destroyed after it joined (runtime parked again).
  std::unique_ptr<rt::Runtime> rt_;
  std::unique_ptr<fb::PeriodicTask> task_;
  rt::ThreadId scaler_tid_ = rt::kNoThread;
  rt::Doorbell bell_;
  std::thread host_;
};

}  // namespace infopipe::balance
