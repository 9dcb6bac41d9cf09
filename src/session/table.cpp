#include "session/table.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/event.hpp"
#include "core/pipeline.hpp"
#include "core/realization.hpp"
#include "feedback/endpoint.hpp"
#include "feedback/toolkit.hpp"
#include "session/engine.hpp"

namespace infopipe::session {

/// One shard's engine.
struct SessionTable::Engine {
  ShardState state;
  std::unique_ptr<SessionSource> src;
  std::unique_ptr<ClassGovernor> gov;
  std::unique_ptr<fb::LatencySensor> lag;
  std::unique_ptr<SessionSink> sink;
  std::vector<std::unique_ptr<Component>> stages;
  std::shared_ptr<Pipeline> pipe;
  std::unique_ptr<Realization> real;
  std::unique_ptr<fb::FeedbackLoop> loop;
  /// Torn down ahead of the shard's retirement; counters stay readable.
  bool retired = false;
};

void SessionTable::on_shard(int shard, const std::function<void()>& fn) {
  if (group_->running() && !group_->on_shard_thread(shard)) {
    group_->run_on(shard, fn);
  } else {
    fn();
  }
}

SessionTable::SessionTable(shard::ShardGroup& group,
                           std::shared_ptr<const SharedPlan> plan)
    : group_(&group), plan_(std::move(plan)) {
  engines_.resize(static_cast<std::size_t>(group.size()));
  for (int s = 0; s < group.size(); ++s) {
    engines_[static_cast<std::size_t>(s)] = std::make_unique<Engine>();
    build_engine(s);
  }
}

int SessionTable::shards() const {
  return static_cast<int>(engine_count());
}

std::vector<int> SessionTable::live_shards() const {
  return group_->live_shards();
}

SessionTable::Engine& SessionTable::engine_at(int shard) const {
  const std::lock_guard<std::mutex> lk(engines_mu_);
  if (shard < 0 || static_cast<std::size_t>(shard) >= engines_.size()) {
    throw std::out_of_range("session: shard " + std::to_string(shard) +
                            " out of range");
  }
  return *engines_[static_cast<std::size_t>(shard)];
}

std::size_t SessionTable::engine_count() const {
  const std::lock_guard<std::mutex> lk(engines_mu_);
  return engines_.size();
}

void SessionTable::sync_topology() {
  // Grow the slot vector under the lock, then realize the new engines
  // outside it (realization routes through run_on — never hold a lock
  // across that).
  std::vector<int> fresh;
  {
    const std::lock_guard<std::mutex> lk(engines_mu_);
    const auto n = static_cast<std::size_t>(group_->size());
    while (engines_.size() < n) {
      fresh.push_back(static_cast<int>(engines_.size()));
      engines_.push_back(std::make_unique<Engine>());
    }
  }
  for (const int s : fresh) {
    if (group_->is_live(s)) build_engine(s);
  }
}

void SessionTable::retire_shard(int shard) {
  Engine& e = engine_at(shard);
  if (e.retired) return;
  e.retired = true;
  if (e.loop) {
    on_shard(shard, [&e] {
      e.loop->stop();
      e.loop.reset();
    });
  }
  if (e.real) {
    on_shard(shard, [&e] {
      e.real->post_event(Event{kEventShutdown});
      e.real.reset();
    });
  }
  // Sessions that were still open here die with the engine; the aggregate
  // live count must not keep counting them.
  const auto orphaned = e.state.live.exchange(0, std::memory_order_relaxed);
  live_.fetch_sub(orphaned, std::memory_order_relaxed);
}

void SessionTable::build_engine(int shard) {
  Engine& e = engine_at(shard);
  const EngineSpec& sp = plan_->spec();
  e.src = std::make_unique<SessionSource>("sess.src", &e.state,
                                          sp.idle_poll_hz, sp.min_mult);
  e.gov = std::make_unique<ClassGovernor>("sess.governor", &e.state,
                                          sp.min_mult);
  e.lag = std::make_unique<fb::LatencySensor>("sess.lag", 0.2,
                                              /*report_every=*/0);
  e.sink = std::make_unique<SessionSink>("sess.sink", &e.state);
  if (sp.stages) e.stages = sp.stages(shard);

  e.pipe = std::make_shared<Pipeline>();
  Component* prev = e.src.get();
  e.pipe->connect(*prev, *e.gov);
  prev = e.gov.get();
  for (auto& stage : e.stages) {
    e.pipe->connect(*prev, *stage);
    prev = stage.get();
  }
  e.pipe->connect(*prev, *e.lag);
  e.pipe->connect(*e.lag, *e.sink);

  // Realization (thread creation) happens on the owning shard's kernel
  // thread; everything above is pure graph construction.
  on_shard(shard, [this, shard, &e] {
    e.real = std::make_unique<Realization>(group_->runtime(shard), e.pipe);
    realizations_.fetch_add(1, std::memory_order_relaxed);
    e.real->post_event(Event{kEventStart});
  });
}

SessionTable::~SessionTable() {
  stop();
  for (std::size_t s = 0; s < engine_count(); ++s) {
    Engine& e = engine_at(static_cast<int>(s));
    if (e.real) {
      on_shard(static_cast<int>(s), [&e] { e.real.reset(); });
    }
  }
}

SessionId SessionTable::open_on(int shard, SessionParams p) {
  Engine& e = engine_at(shard);
  if (e.retired || !group_->is_live(shard)) {
    throw std::out_of_range("session: shard " + std::to_string(shard) +
                            " is retired");
  }
  // The stamp: a slot issue and one queue push. The wheel picks it up at
  // the engine's next fire (bounded by idle_poll_hz).
  const SessionId id = e.src->open(shard, p);

  live_.fetch_add(1, std::memory_order_relaxed);
  e.state.live.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void SessionTable::close(SessionId id) {
  const int shard = shard_of_session(id);
  if (shard < 0 || static_cast<std::size_t>(shard) >= engine_count()) return;
  Engine& e = engine_at(shard);
  if (e.retired) return;  // force-closed with its shard already

  e.src->enqueue_close(id);

  live_.fetch_sub(1, std::memory_order_relaxed);
  e.state.live.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t SessionTable::live_on(int shard) const {
  return engine_at(shard).state.live.load(std::memory_order_relaxed);
}

std::uint64_t SessionTable::items_total() const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < engine_count(); ++s) {
    n += engine_at(static_cast<int>(s))
             .state.emitted.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t SessionTable::items_of(SessionId id) {
  const int shard = shard_of_session(id);
  Engine& e = engine_at(shard);
  if (e.retired) return 0;
  std::uint64_t out = 0;
  on_shard(shard, [&out, &e, id] { out = e.sink->items_of(id); });
  return out;
}

std::uint64_t SessionTable::digest(SessionId id) {
  const int shard = shard_of_session(id);
  Engine& e = engine_at(shard);
  if (e.retired) return 0;
  std::uint64_t out = 0;
  on_shard(shard, [&out, &e, id] { out = e.sink->digest_of(id); });
  return out;
}

double SessionTable::mult(int shard, QosClass c) const {
  return engine_at(shard)
      .state.mult[static_cast<std::size_t>(c)]
      .load(std::memory_order_relaxed);
}

JitterSnapshot SessionTable::jitter() const {
  obs::Histogram merged;
  for (std::size_t s = 0; s < engine_count(); ++s) {
    merged.merge(engine_at(static_cast<int>(s)).state.jitter);
  }
  JitterSnapshot snap;
  snap.samples = merged.count();
  if (snap.samples > 0) {
    snap.p50_ns = merged.quantile(0.50);
    snap.p99_ns = merged.quantile(0.99);
    snap.max_ns = merged.quantile(1.0);
  }
  return snap;
}

void SessionTable::start_loops() {
  const EngineSpec& sp = plan_->spec();
  for (std::size_t s = 0; s < engine_count(); ++s) {
    Engine& e = engine_at(static_cast<int>(s));
    if (e.retired || !e.real) continue;
    on_shard(static_cast<int>(s), [&e, &sp, s] {
      fb::LoopSpec spec;
      spec.name = "sess.gov" + std::to_string(s);
      spec.period = sp.loop_period;
      spec.sensor = fb::probe_value("sess.lag");
      spec.setpoint = sp.lag_setpoint_ms;
      spec.controller = fb::PIController(sp.loop_kp, sp.loop_ki,
                                         sp.min_mult, 1.0);
      spec.actuator = fb::quality_hint("sess.governor");
      e.loop = fb::make_loop(*e.real, std::move(spec));
      e.loop->start();
    });
  }
}

void SessionTable::stop_loops() {
  for (std::size_t s = 0; s < engine_count(); ++s) {
    Engine& e = engine_at(static_cast<int>(s));
    if (!e.loop) continue;
    on_shard(static_cast<int>(s), [&e] {
      e.loop->stop();
      e.loop.reset();
    });
  }
}

void SessionTable::inject_hint(int shard, double h) {
  Engine& e = engine_at(shard);
  if (e.retired || !e.real) return;
  const Event hint{kEventQualityHint, h};
  if (group_->running() && !group_->on_shard_thread(shard)) {
    e.real->post_event_to_external(*e.gov, hint);
  } else {
    e.real->post_event_to(*e.gov, hint);
  }
}

void SessionTable::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_loops();
  for (std::size_t s = 0; s < engine_count(); ++s) {
    Engine& e = engine_at(static_cast<int>(s));
    if (!e.real) continue;
    on_shard(static_cast<int>(s),
             [&e] { e.real->post_event(Event{kEventShutdown}); });
  }
}

}  // namespace infopipe::session
