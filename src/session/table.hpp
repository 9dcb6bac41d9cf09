// ip_session SessionTable: 100k live flows out of one shared plan.
//
// The table owns one *engine* per shard — SessionSource (a timing wheel
// over ONE driver thread) >> ClassGovernor >> application stages >>
// LatencySensor >> SessionSink — realized exactly once, at construction,
// from the SharedPlan's spec. Opening a session is then a *stamp*: a slot
// issued on the home shard's engine (the id names it) and a queue push
// onto that engine's wheel. No planning, no realization, no thread
// creation — which is why open_on() is orders of magnitude cheaper than a
// per-flow Pipeline realize, and why tens of thousands of concurrent
// sessions fit where the classic path holds dozens
// (bench/bench_sessions.cpp measures both claims).
//
// Per-class QoS: start_loops() binds one feedback loop per shard over the
// existing endpoint layer — probe_value("sess.lag") → PI →
// quality_hint("sess.governor") — holding the engine's due-to-arrival lag
// at the spec's setpoint by degrading bronze (and, half as fast, silver)
// cadence while gold stays untouched: gold sessions steal pump rate from
// bronze under pressure, through ordinary control events.
//
// Each session's item stream is exactly what a classic one-realization-
// per-flow pipeline (a clocked source emitting make_session_item, the
// plan's stages, a SessionSink) would deliver: session_test builds that
// reference and asserts digest(id) matches it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/introspect.hpp"
#include "session/plan.hpp"
#include "session/session.hpp"
#include "shard/shard_group.hpp"

namespace infopipe {
class Pipeline;
class Realization;
}  // namespace infopipe
namespace infopipe::fb {
class FeedbackLoop;
class LatencySensor;
}  // namespace infopipe::fb

namespace infopipe::session {

class ClassGovernor;
class SessionSink;
class SessionSource;

class SessionTable {
 public:
  /// Realizes one engine per shard of `group` from the shared plan (routed
  /// through run_on when the group is running; inline in manual mode) and
  /// starts them pumping. The group must outlive the table.
  SessionTable(shard::ShardGroup& group,
               std::shared_ptr<const SharedPlan> plan);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  [[nodiscard]] const SharedPlan& shared_plan() const noexcept {
    return *plan_;
  }
  /// The ONE plan every session shares (cached at analyze(); never
  /// recomputed per session).
  [[nodiscard]] const PlanInfo& plan_info() const noexcept {
    return plan_->info();
  }
  /// Engines ever built (grows with the elastic topology, never shrinks —
  /// a retired shard keeps its engine slot and final counters).
  [[nodiscard]] int shards() const;
  /// The group this table realizes over (for live-topology queries).
  [[nodiscard]] shard::ShardGroup& group() const noexcept { return *group_; }
  /// Ids of shards currently accepting sessions: the group's live set.
  [[nodiscard]] std::vector<int> live_shards() const;

  // ---- elastic topology -----------------------------------------------------

  /// Adopts shards the group grew after this table was built: realizes one
  /// engine per new live shard. Idempotent. Call after ShardGroup::add_shard().
  void sync_topology();

  /// Tears down a shard's engine ahead of ShardGroup::retire_shard():
  /// stops its loop, posts shutdown and destroys the realization ON the
  /// shard's still-live kernel thread. Sessions still open there are
  /// force-closed (their planned load is the acceptor's business; its
  /// close() path tolerates already-gone ids). open_on() refuses the shard
  /// afterwards. Must run BEFORE the group retires the shard — run_on
  /// needs the host thread alive.
  void retire_shard(int shard);

  // ---- the stamp path -------------------------------------------------------

  /// Opens a session on `shard`: thread-safe, constant-time, callable from
  /// any thread while the engines run. Admission policy lives in
  /// SessionAcceptor — the table refuses only when the shard's engine has
  /// no slot left to issue (std::length_error; see SessionSource::open).
  [[nodiscard]] SessionId open_on(int shard, SessionParams p);

  /// Closes an open session. Each id must be closed at most once.
  void close(SessionId id);

  // ---- query surface --------------------------------------------------------

  [[nodiscard]] std::size_t live() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t live_on(int shard) const;
  /// Items emitted across all engines.
  [[nodiscard]] std::uint64_t items_total() const;
  /// Items delivered / stream digest of one session (sampled on the home
  /// shard's thread while running). Digest covers payload+seq+kind per the
  /// distributed_player convention. A closed session still answers until
  /// its slot's next occupant delivers an item, and then from a ring of the
  /// engine's last 1024 such sessions; one evicted from that ring reads 0.
  /// Per-engine state is the slots plus that ring, however many sessions
  /// come and go.
  [[nodiscard]] std::uint64_t items_of(SessionId id);
  [[nodiscard]] std::uint64_t digest(SessionId id);
  /// Current cadence multiplier of a class on a shard (1.0 untouched).
  [[nodiscard]] double mult(int shard, QosClass c) const;
  /// Merged inter-item jitter across every shard's histogram.
  [[nodiscard]] JitterSnapshot jitter() const;
  /// Planner+realize runs so far: one per engine, never one per open.
  [[nodiscard]] std::uint64_t realizations() const noexcept {
    return realizations_.load(std::memory_order_relaxed);
  }

  // ---- per-class QoS --------------------------------------------------------

  /// Binds and starts one lag-holding feedback loop per shard. Call while
  /// the group is running.
  void start_loops();
  void stop_loops();
  /// Deterministic substitute for the loops: applies one quality hint to a
  /// shard's governor exactly as an actuation would (lockstep tests drive
  /// class stealing through this, bit-identically across runs).
  void inject_hint(int shard, double h);

  /// Posts shutdown to every engine. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Engine;

  void on_shard(int shard, const std::function<void()>& fn);
  void build_engine(int shard);
  /// Bounds-checked engine lookup; the Engine objects are heap-stable, so
  /// the returned reference survives concurrent growth of engines_.
  [[nodiscard]] Engine& engine_at(int shard) const;
  [[nodiscard]] std::size_t engine_count() const;

  shard::ShardGroup* group_;
  std::shared_ptr<const SharedPlan> plan_;
  /// Guards the engines_ vector's SHAPE (elastic growth); the Engines
  /// themselves are reached through stable unique_ptrs.
  mutable std::mutex engines_mu_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::atomic<std::uint64_t> realizations_{0};
  std::atomic<std::uint64_t> live_{0};
  bool stopped_ = false;
};

}  // namespace infopipe::session
