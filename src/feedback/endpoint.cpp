#include "feedback/endpoint.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

namespace infopipe::fb {

namespace {

/// Current value of a probeable component: the sensor classes the toolkit
/// ships plus the adaptive pump (so a loop can read another loop's plant).
double probe(Component* c) {
  if (auto* rs = dynamic_cast<RateSensor*>(c)) return rs->rate_hz();
  if (auto* ls = dynamic_cast<LatencySensor*>(c)) return ls->latency_ms();
  if (auto* ap = dynamic_cast<AdaptivePump*>(c)) return ap->rate_hz();
  throw CompositionError("'" + c->name() +
                         "' is not a probeable sensor "
                         "(RateSensor/LatencySensor/AdaptivePump)");
}

Buffer* need_buffer(Component* c) {
  auto* b = dynamic_cast<Buffer*>(c);
  if (b == nullptr) {
    throw CompositionError("'" + c->name() + "' is not a buffer");
  }
  return b;
}

[[noreturn]] void unknown(const std::string& target) {
  throw CompositionError("feedback endpoint '" + target +
                         "' matches no component or channel");
}

/// Turns a cumulative event count into a smoothed events-per-second reading,
/// differenced over the home runtime's clock between samples. The first
/// sample primes the window and reads 0.
FeedbackLoop::Reading windowed_rate(std::function<std::uint64_t()> count,
                                    rt::Runtime* home) {
  struct State {
    std::uint64_t n = 0;
    rt::Time t = 0;
    double rate = 0.0;
    bool primed = false;
  };
  auto st = std::make_shared<State>();
  return [count = std::move(count), home, st]() {
    const std::uint64_t n = count();
    const rt::Time now = home->now();
    if (st->primed && now > st->t) {
      st->rate = static_cast<double>(n - st->n) * 1e9 /
                 static_cast<double>(now - st->t);
    }
    st->n = n;
    st->t = now;
    st->primed = true;
    return st->rate;
  };
}

/// A congestion reading of `b`: its counters are atomics with one writer
/// each, so the reading may run on any shard, and the object is the same
/// whether or not a migration has cut the buffer.
FeedbackLoop::Reading buffer_reading(Buffer* b, SensorKind kind,
                                     rt::Runtime* home) {
  switch (kind) {
    case SensorKind::kFillFraction:
      return [b]() {
        return static_cast<double>(b->fill()) /
               static_cast<double>(b->capacity());
      };
    case SensorKind::kProducerStallRate:
      return windowed_rate([b]() { return b->stats().put_blocks; }, home);
    case SensorKind::kConsumerStallRate:
      return windowed_rate([b]() { return b->stats().take_blocks; }, home);
    case SensorKind::kProbeValue:
      break;
  }
  throw CompositionError("'" + b->name() + "' has no probe value");
}

/// Samples a component by name through the migration-safe path: the sample
/// runs on whichever shard hosts the component NOW, and when a structural
/// operation (a migration, a snapshot) is in flight the previous value is
/// returned instead of blocking behind it. Exactly one such cross-shard
/// sample is in flight at a time (the structural lock serializes them),
/// which is what makes opposite-direction component loops between one shard
/// pair deadlock-free.
std::function<double()> sampled(shard::ShardedRealization* sr,
                                std::string name,
                                std::function<double(Component&)> fn) {
  auto last = std::make_shared<double>(0.0);
  return [sr, name = std::move(name), fn = std::move(fn), last]() {
    if (const std::optional<double> v = sr->try_sample_component(name, fn)) {
      *last = *v;
    }
    return *last;
  };
}

/// The shard-side cache of a remote probe (satellite of §13): instead of a
/// blocking round trip per loop step, a PeriodicTask on the probed
/// component's shard samples it locally, stores the value here, and
/// broadcasts it as a kEventSensorReport. The loop's Reading is then one
/// atomic load. The task FOLLOWS the component: when a migration moves it
/// to another shard, the tick notices (migrations() epoch change), stops
/// sampling — a tick on the old shard would otherwise be exactly the
/// blocking cross-shard round trip this cache exists to remove — and the
/// next read() re-homes the task onto the new owner shard.
class RemoteProbe {
 public:
  RemoteProbe(shard::ShardedRealization& sr, std::string name, int owner,
              rt::Time period)
      : sr_(&sr),
        name_(std::move(name)),
        period_(period),
        owner_(owner),
        epoch_(sr.migrations()) {
    run_on_owner([this] { make_task(); });
  }

  ~RemoteProbe() {
    // Destroy the task where it lives. Must not run on a shard's kernel
    // thread — the same rule as destroying the owning FeedbackLoop.
    run_on_owner([this]() { task_.reset(); });
  }

  RemoteProbe(const RemoteProbe&) = delete;
  RemoteProbe& operator=(const RemoteProbe&) = delete;

  /// One atomic load — plus, when the probed component migrated since the
  /// last read, a one-time re-home of the sampling task (the task cannot
  /// destroy itself from its own tick). read() only ever runs from the
  /// loop's step on its home shard, so the re-home is single-threaded; the
  /// old-task teardown and new-task spawn each synchronize through run_on.
  [[nodiscard]] double read() {
    const int to = moved_to_.load(std::memory_order_acquire);
    if (to >= 0 && to != owner_) {
      run_on_owner([this] { task_.reset(); });
      owner_ = to;
      moved_to_.store(-1, std::memory_order_release);
      run_on_owner([this] { make_task(); });
    }
    return valid_.load(std::memory_order_acquire)
               ? value_.load(std::memory_order_acquire)
               : 0.0;
  }

 private:
  /// Runs on owner_'s kernel thread. Each tick first re-resolves the
  /// component when a migration completed since the last look; once it has
  /// left this shard, the tick flags the new owner and goes dormant until
  /// read() re-homes the task.
  void make_task() {
    task_ = std::make_unique<PeriodicTask>(
        sr_->group().runtime(owner_), "fb.probe." + name_, period_,
        [this](rt::Time) {
          if (moved_to_.load(std::memory_order_relaxed) >= 0) return;
          const std::uint64_t ep = sr_->migrations();
          if (ep != epoch_) {
            epoch_ = ep;
            const shard::ShardedRealization::Located loc =
                sr_->find_component(name_);
            if (loc.shard >= 0 && loc.shard != owner_) {
              moved_to_.store(loc.shard, std::memory_order_release);
              return;
            }
          }
          const std::optional<double> v = sr_->try_sample_component(
              name_, [](Component& c) { return probe(&c); });
          if (!v) return;
          value_.store(*v, std::memory_order_release);
          valid_.store(true, std::memory_order_release);
          sr_->post_event(
              Event{kEventSensorReport, SensorReport{name_, *v}});
        });
    task_->start();
  }

  void run_on_owner(const std::function<void()>& fn) {
    // Inline when the group is not running — and when already ON the
    // owner's kernel thread, where a nested run_on would deadlock (a
    // re-home can land the task on the loop's own home shard).
    if (sr_->group().running() && !sr_->group().on_shard_thread(owner_)) {
      sr_->group().run_on(owner_, fn);
    } else {
      fn();
    }
  }

  shard::ShardedRealization* sr_;
  const std::string name_;
  const rt::Time period_;
  int owner_;           ///< shard whose runtime currently hosts the task
  std::uint64_t epoch_; ///< last migrations() seen; touched by the task only
  std::unique_ptr<PeriodicTask> task_;
  std::atomic<int> moved_to_{-1};  ///< task -> read(): component moved here
  std::atomic<double> value_{0.0};
  std::atomic<bool> valid_{false};
};

FeedbackLoop::Actuate event_actuator(std::function<void(const Event&)> post,
                                     ActuatorKind kind) {
  return [post = std::move(post), kind](double v) {
    if (kind == ActuatorKind::kPumpRate && v <= 0.0) return;
    post(Event{kEventQualityHint, v});
  };
}

}  // namespace

FeedbackLoop::Reading resolve_reading(Realization& real, const SensorRef& s) {
  Component* c = real.find_component(s.target);
  if (c == nullptr) unknown(s.target);
  if (s.kind != SensorKind::kProbeValue) {
    return buffer_reading(need_buffer(c), s.kind, &real.runtime());
  }
  (void)probe(c);  // type-check at bind time, not first sample
  return [c]() { return probe(c); };
}

FeedbackLoop::Actuate resolve_actuate(Realization& real,
                                      const ActuatorRef& a) {
  Component* c = real.find_component(a.target);
  if (c == nullptr) unknown(a.target);
  if (a.kind == ActuatorKind::kPumpRate &&
      dynamic_cast<AdaptivePump*>(c) == nullptr) {
    throw CompositionError("'" + a.target + "' is not an AdaptivePump");
  }
  Realization* r = &real;
  return event_actuator(
      [r, c](const Event& e) { r->post_event_to(*c, e); }, a.kind);
}

FeedbackLoop::Reading resolve_reading(shard::ShardedRealization& sr,
                                      const SensorRef& s, int home_shard,
                                      rt::Time probe_period) {
  rt::Runtime* home = &sr.group().runtime(home_shard);
  shard::ShardedRealization* srp = &sr;
  // A cut buffer is still the application's Buffer, so a congestion ref
  // binds to the object once and reads it wherever its ends run.
  Buffer* cut = sr.find_channel(s.target);
  const shard::ShardedRealization::Located loc = sr.find_component(s.target);
  if (cut == nullptr && loc.comp == nullptr) unknown(s.target);
  switch (s.kind) {
    case SensorKind::kFillFraction:
    case SensorKind::kProducerStallRate:
    case SensorKind::kConsumerStallRate:
      return buffer_reading(cut != nullptr ? cut : need_buffer(loc.comp),
                            s.kind, home);
    case SensorKind::kProbeValue: {
      if (loc.comp == nullptr) {
        throw CompositionError("channel '" + s.target +
                               "' has no probe value; use fill_fraction or "
                               "a stall rate");
      }
      (void)probe(loc.comp);  // type-check at bind time
      if (loc.shard == home_shard) {
        // Local probe: the migration-safe path degenerates to a direct read
        // when the component is on the calling shard.
        return sampled(srp, s.target,
                       [](Component& c) { return probe(&c); });
      }
      // Foreign probe: no blocking round trip per step — a shard-side task
      // pushes samples into a cache the Reading loads.
      if (probe_period <= 0) probe_period = rt::milliseconds(25);
      auto remote = std::make_shared<RemoteProbe>(sr, s.target, loc.shard,
                                                  probe_period);
      return [remote]() { return remote->read(); };
    }
  }
  unknown(s.target);
}

FeedbackLoop::Actuate resolve_actuate(shard::ShardedRealization& sr,
                                      const ActuatorRef& a) {
  const shard::ShardedRealization::Located loc = sr.find_component(a.target);
  if (loc.comp == nullptr) unknown(a.target);
  if (a.kind == ActuatorKind::kPumpRate &&
      dynamic_cast<AdaptivePump*>(loc.comp) == nullptr) {
    throw CompositionError("'" + a.target + "' is not an AdaptivePump");
  }
  // The hint crosses shards as a control event through the one thread-safe
  // runtime entry point: delivered at the target's dispatch points, even
  // while the target is blocked in a push/pull (§3.2 across cores). Routed
  // through the sharded realization — NOT a cached per-shard Realization —
  // so the hint keeps finding the component after migrations move it.
  shard::ShardedRealization* srp = &sr;
  Component* c = loc.comp;
  return event_actuator(
      [srp, c](const Event& e) { srp->post_event_to_component(*c, e); },
      a.kind);
}

std::unique_ptr<FeedbackLoop> make_loop(Realization& real, LoopSpec spec) {
  return std::make_unique<FeedbackLoop>(
      real.runtime(), std::move(spec.name), spec.period,
      resolve_reading(real, spec.sensor), spec.setpoint, spec.controller,
      resolve_actuate(real, spec.actuator));
}

namespace {

/// The Exec that reaches `home`'s kernel thread from anywhere — including
/// from that very thread (re-homing runs loop plumbing from shard ticks,
/// where a nested run_on would deadlock).
FeedbackLoop::Exec exec_for(shard::ShardGroup* grp, int home) {
  return [grp, home](const std::function<void()>& f) {
    if (grp->running() && !grp->on_shard_thread(home)) {
      grp->run_on(home, f);
    } else {
      f();
    }
  };
}

}  // namespace

std::unique_ptr<FeedbackLoop> make_loop(shard::ShardedRealization& sr,
                                        LoopSpec spec, int home_shard) {
  int home = home_shard;
  if (home < 0) {
    if (const Buffer* b = sr.find_channel(spec.sensor.target)) {
      home = b->to_shard();
    } else {
      const auto loc = sr.find_component(spec.sensor.target);
      if (loc.comp == nullptr) unknown(spec.sensor.target);
      home = loc.shard;
    }
  }
  FeedbackLoop::Reading read =
      resolve_reading(sr, spec.sensor, home, spec.period);
  FeedbackLoop::Actuate act = resolve_actuate(sr, spec.actuator);
  shard::ShardGroup* grp = &sr.group();
  FeedbackLoop::Exec exec = exec_for(grp, home);
  // Construct ON the home shard: the loop's task thread spawns there and
  // its metric handles resolve against that shard's registry (rows appear
  // as shard<home>.fb.loop.<name>.* in the group snapshot).
  std::unique_ptr<FeedbackLoop> loop;
  exec([&] {
    loop = std::make_unique<FeedbackLoop>(
        grp->runtime(home), std::move(spec.name), spec.period,
        std::move(read), spec.setpoint, spec.controller, std::move(act),
        exec);
  });
  // A naturally-homed loop FOLLOWS its sensor: when a migration moves the
  // observed section, the next step notices (one relaxed epoch load per
  // step otherwise), recomputes the natural home and — if it changed —
  // hands the loop a Rebind with the endpoints re-resolved for the new
  // vantage point. An explicit home_shard pins the loop: the caller chose a
  // placement, so no check is installed.
  if (home_shard < 0) {
    shard::ShardedRealization* srp = &sr;
    loop->set_home_check(
        [srp, grp, sensor = spec.sensor, actuator = spec.actuator,
         period = spec.period, home, epoch = sr.migrations()]() mutable
        -> std::optional<FeedbackLoop::Rebind> {
          const std::uint64_t ep = srp->migrations();
          if (ep == epoch) return std::nullopt;
          epoch = ep;
          int nh = -1;
          if (const Buffer* b = srp->find_channel(sensor.target)) {
            nh = b->to_shard();
          } else {
            nh = srp->find_component(sensor.target).shard;
          }
          if (nh < 0 || nh == home) return std::nullopt;
          home = nh;
          FeedbackLoop::Rebind rb;
          rb.rt = &grp->runtime(nh);
          rb.read = resolve_reading(*srp, sensor, nh, period);
          rb.act = resolve_actuate(*srp, actuator);
          rb.exec = exec_for(grp, nh);
          return rb;
        });
  }
  return loop;
}

}  // namespace infopipe::fb
