#include "balance/rebalancer.hpp"

#include <algorithm>
#include <utility>

#include "rt/clock.hpp"
#include "rt/msg_registry.hpp"

namespace infopipe::balance {

Rebalancer::Rebalancer(shard::ShardedRealization& sr, Options opts)
    : sr_(&sr),
      opts_(opts),
      accountant_(sr, opts.accountant),
      protocol_(opts.protocol) {}

Rebalancer::~Rebalancer() { stop(); }

std::optional<MigrationReport> Rebalancer::run_pending() {
  while (!pending_.empty()) {
    const PlannedMove m = pending_.front();
    pending_.pop_front();
    // The plan was computed against a snapshot; the world may have moved
    // (a migration failed, a shard retired, a session layer rehomed the
    // section). A stale move is dropped, not forced — the next replan sees
    // the true placement.
    if (m.section >= sr_->section_count() ||
        sr_->shard_of_section(m.section) != m.from ||
        !sr_->section_migratable(m.section) ||
        !sr_->group().is_live(m.to)) {
      continue;
    }
    attempts_.fetch_add(1, std::memory_order_relaxed);
    return protocol_.move_section(*sr_, m.section, m.to, nullptr);
  }
  return std::nullopt;
}

double Rebalancer::live_spread(const LoadSnapshot& load) const {
  const std::vector<int> live = sr_->group().live_shards();
  if (live.empty()) return 0.0;
  double lo = 1.0, hi = 0.0;
  for (const int s : live) {
    lo = std::min(lo, busy_of(load.busy, s));
    hi = std::max(hi, busy_of(load.busy, s));
  }
  return hi - lo;
}

void Rebalancer::replan(const LoadSnapshot& load) {
  const std::vector<int> live = sr_->group().live_shards();
  if (live.size() < 2 || live_spread(load) < opts_.min_imbalance) return;

  const TargetPlan plan = TargetPlanner::plan(*sr_, load, live);
  if (plan.moves.empty()) return;
  if (plan.current_makespan - plan.makespan <= opts_.migration_cost) {
    return;  // the reshuffle would not pay for itself
  }
  const ScheduledPlan sched = PlanScheduler::schedule(plan.moves, load.busy);
  for (const PlannedMove& m : sched.ordered) pending_.push_back(m);
  cooldown_ = opts_.cooldown_steps;
}

std::optional<MigrationReport> Rebalancer::step() {
  accountant_.sample();
  const LoadSnapshot load = accountant_.snapshot();
  steps_.fetch_add(1, std::memory_order_relaxed);

  maybe_scale(load);

  std::optional<MigrationReport> report = run_pending();
  if (!report) {
    if (cooldown_ > 0) {
      --cooldown_;
    } else {
      replan(load);
      report = run_pending();
    }
  }

  {
    const std::lock_guard<std::mutex> lk(metrics_mu_);
    metrics_.counter("balance.steps").inc();
    metrics_.gauge("balance.imbalance").set(live_spread(load));
    metrics_.gauge("balance.pending_moves")
        .set(static_cast<double>(pending_.size()));
  }
  if (report) record_report(*report);
  return report;
}

void Rebalancer::record_report(const MigrationReport& r) {
  const std::lock_guard<std::mutex> lk(metrics_mu_);
  if (r.ok()) {
    metrics_.counter("balance.migration.count").inc();
    metrics_.histogram("balance.migration.quiesce_ns")
        .record(static_cast<std::int64_t>(r.quiesce_ns));
    metrics_.histogram("balance.migration.transfer_ns")
        .record(static_cast<std::int64_t>(r.transfer_ns));
    metrics_.histogram("balance.migration.total_ns")
        .record(static_cast<std::int64_t>(r.total_ns()));
  } else {
    metrics_.counter("balance.migration.failed").inc();
  }
}

void Rebalancer::maybe_scale(const LoadSnapshot& load) {
  if (!opts_.elastic.enabled) return;
  shard::ShardGroup& g = sr_->group();
  const std::vector<int> live = g.live_shards();
  if (live.empty()) return;

  double sum = 0.0;
  for (const int s : live) sum += busy_of(load.busy, s);
  const double mean = sum / static_cast<double>(live.size());
  up_streak_ = mean >= opts_.elastic.scale_up_watermark ? up_streak_ + 1 : 0;
  down_streak_ =
      mean <= opts_.elastic.scale_down_watermark ? down_streak_ + 1 : 0;
  if (scale_cooldown_ > 0) {
    --scale_cooldown_;
    return;
  }

  if (up_streak_ >= opts_.elastic.scale_up_steps &&
      static_cast<int>(live.size()) < opts_.elastic.max_shards &&
      g.size() < shard::ShardGroup::kMaxShards) {
    if (running()) {
      // Autonomous: hand the (blocking) topology change to the scaler
      // thread so this sampling tick returns on time.
      rt_->send(scaler_tid_, rt::Message{rt::msg::kBalanceScaleUp,
                                         rt::MsgClass::kControl});
    } else {
      do_scale_up();
    }
    return;
  }
  if (down_streak_ >= opts_.elastic.scale_down_steps &&
      static_cast<int>(live.size()) > std::max(1, opts_.elastic.min_shards)) {
    const int victim = pick_scale_down_victim(load);
    if (victim < 0) return;
    if (running()) {
      rt::Message m{rt::msg::kBalanceScaleDown, rt::MsgClass::kControl};
      m.payload = victim;
      rt_->send(scaler_tid_, std::move(m));
    } else {
      do_scale_down(victim);
    }
  }
}

int Rebalancer::pick_scale_down_victim(const LoadSnapshot& load) const {
  // Least-busy live shard whose sections can all leave. Empty shards are
  // the cheapest victims of all.
  int victim = -1;
  double victim_busy = 0.0;
  for (const int s : sr_->group().live_shards()) {
    bool drainable = true;
    for (std::size_t sec = 0; sec < sr_->section_count(); ++sec) {
      if (sr_->shard_of_section(sec) == s && !sr_->section_migratable(sec)) {
        drainable = false;
        break;
      }
    }
    if (!drainable) continue;
    const double b = busy_of(load.busy, s);
    if (victim < 0 || b < victim_busy) {
      victim = s;
      victim_busy = b;
    }
  }
  return victim;
}

void Rebalancer::do_scale_up() {
  try {
    (void)sr_->group().add_shard();
    sr_->sync_topology();
    scale_ups_.fetch_add(1, std::memory_order_relaxed);
    up_streak_ = 0;
    scale_cooldown_ = opts_.elastic.cooldown_steps;
    cooldown_ = 0;  // replan onto the new shard immediately
    const std::lock_guard<std::mutex> lk(metrics_mu_);
    metrics_.counter("balance.scale.up").inc();
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lk(metrics_mu_);
    metrics_.counter("balance.scale.failed").inc();
  }
}

void Rebalancer::do_scale_down(int victim) {
  try {
    // Full evacuation first (place() over the surviving shards), then the
    // thread-lifecycle retirement. Any pending plan entries touching the
    // victim are stale by construction afterwards; drop them now so the
    // queue never targets a retired shard.
    const std::vector<shard::MigrationOutcome> moved =
        sr_->evacuate_shard(victim, opts_.protocol.quiesce_timeout);
    sr_->group().retire_shard(victim);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [victim](const PlannedMove& m) {
                                    return m.from == victim ||
                                           m.to == victim;
                                  }),
                   pending_.end());
    scale_downs_.fetch_add(1, std::memory_order_relaxed);
    down_streak_ = 0;
    scale_cooldown_ = opts_.elastic.cooldown_steps;
    const std::lock_guard<std::mutex> lk(metrics_mu_);
    metrics_.counter("balance.scale.down").inc();
    metrics_.counter("balance.scale.evacuated_sections")
        .inc(static_cast<std::uint64_t>(moved.size()));
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lk(metrics_mu_);
    metrics_.counter("balance.scale.failed").inc();
  }
}

void Rebalancer::launch() {
  if (host_.joinable()) return;
  rt_ = std::make_unique<rt::Runtime>(std::make_unique<rt::RealClock>());
  // Spawn + start the task before the host thread exists: still
  // single-threaded here, so the non-thread-safe Runtime surface is safe.
  //
  // The scaler thread serializes topology changes off the sampling tick.
  // After a scale-up it posts kBalanceApplyPlan to itself: each delivery
  // executes one scheduled move and re-posts while moves remain, so the
  // post-scale plan drains at message speed instead of one move per
  // sampling period. All of this shares the private runtime's single
  // kernel thread with the periodic task, so pending_ needs no lock.
  scaler_tid_ = rt_->spawn(
      "balance.scaler", rt::kPriorityControl,
      [this](rt::Runtime& rt, rt::Message m) {
        if (m.type == rt::msg::kBalanceScaleUp) {
          do_scale_up();
          accountant_.sample();
          replan(accountant_.snapshot());
          if (!pending_.empty()) {
            rt.send(scaler_tid_, rt::Message{rt::msg::kBalanceApplyPlan,
                                             rt::MsgClass::kControl});
          }
        } else if (m.type == rt::msg::kBalanceScaleDown) {
          if (const int* victim = m.get<int>()) do_scale_down(*victim);
        } else if (m.type == rt::msg::kBalanceApplyPlan) {
          if (const std::optional<MigrationReport> r = run_pending()) {
            record_report(*r);
          }
          if (!pending_.empty()) {
            rt.send(scaler_tid_, rt::Message{rt::msg::kBalanceApplyPlan,
                                             rt::MsgClass::kControl});
          }
        }
        return rt::CodeResult::kContinue;
      });
  task_ = std::make_unique<fb::PeriodicTask>(
      *rt_, "balance.rebalancer", opts_.period,
      [this](rt::Time) { (void)step(); });
  task_->start();
  host_ = std::thread([this] { rt_->run_service(); });
}

void Rebalancer::stop() {
  if (!host_.joinable()) return;
  rt_->request_halt();
  host_.join();
  // The runtime is parked again; tearing the task down from this thread is
  // race-free.
  task_.reset();
  rt_.reset();
  scaler_tid_ = rt::kNoThread;
}

obs::MetricsSnapshot Rebalancer::metrics_snapshot() {
  const std::lock_guard<std::mutex> lk(metrics_mu_);
  return metrics_.snapshot();
}

}  // namespace infopipe::balance
