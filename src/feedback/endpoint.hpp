// Location-transparent feedback endpoints (ip_feedback).
//
// The Figure 1 loop — a consumer-side sensor steering a producer-side
// component through the platform — must not care WHERE its two ends run.
// A SensorRef/ActuatorRef names an endpoint (a component, by the name the
// application gave it); resolving the ref against a realization produces
// the concrete Reading/Actuate function:
//
//   * against a Realization, refs resolve to direct probes and local
//     control events — everything is on one runtime;
//   * against a shard::ShardedRealization, congestion sensors (fill and
//     stall kinds) read the buffer's atomics directly: a buffer is one
//     object whether or not a cut spans it, so the reading survives every
//     migration that creates, rebinds or collapses the cut; probe
//     sensors go through ShardedRealization::try_sample_component, which
//     samples on whichever shard hosts the component NOW — so a reading
//     keeps working after the rebalancer migrates its target, and never
//     blocks behind a structural operation (it repeats the last value
//     instead); actuations travel as
//     kEventQualityHint control events through
//     ShardedRealization::post_event_to_component — the same
//     deliver-while-blocked event service that carries them within one
//     runtime, now hopping kernel threads and surviving migrations.
//
// Foreign probe values (a RateSensor on another shard, say) are not sampled
// by round trip at all: resolution plants a small PeriodicTask on the
// probed component's shard that samples locally, pushes the value into an
// atomic cache and broadcasts it as kEventSensorReport; the loop's Reading
// is then one atomic load, at worst one probe period stale. The task
// follows its component: after a migration moves it, the task goes dormant
// and the next Reading re-homes it onto the new owner shard.
//
// make_loop() binds a whole loop from a LoopSpec: on a sharded realization
// the loop is homed on a shard (by default a cut sensor buffer's consumer
// shard — congestion is observed where it hurts) and its lifecycle is
// routed there via run_on, so the caller never touches a foreign runtime.
//
// Cross-shard component samples are serialized by the realization's
// structural lock (one in flight at a time, others reuse their last value),
// so two component-sampling loops closed in opposite directions between the
// same pair of shards no longer deadlock. Buffer sensors (pure atomics)
// remain the cheapest way to observe a cut.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "feedback/toolkit.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::fb {

/// What a named sensor endpoint measures.
enum class SensorKind {
  kFillFraction,       ///< buffer fill, as fraction of capacity
  kProducerStallRate,  ///< producer-side blocks (put_blocks) per second
  kConsumerStallRate,  ///< consumer-side blocks (take_blocks) per second
  kProbeValue,  ///< RateSensor rate_hz / LatencySensor latency_ms / pump rate
};

/// A sensor endpoint by name: a component in some realization.
/// Pure value — resolution happens against a realization.
struct SensorRef {
  std::string target;
  SensorKind kind = SensorKind::kFillFraction;
};

/// What a named actuator endpoint does with the loop output.
enum class ActuatorKind {
  kPumpRate,     ///< kEventQualityHint(Hz) to an AdaptivePump; <= 0 dropped
  kQualityHint,  ///< kEventQualityHint(double) to any component, unfiltered
};

/// An actuator endpoint by name. Pure value, like SensorRef.
struct ActuatorRef {
  std::string target;
  ActuatorKind kind = ActuatorKind::kPumpRate;
};

// -- named-endpoint factories ---------------------------------------------------

/// Fill level of the buffer named `target`, as a fraction of capacity.
[[nodiscard]] inline SensorRef fill_fraction(std::string target) {
  return SensorRef{std::move(target), SensorKind::kFillFraction};
}
/// Producer-side stall rate (blocks/s) of the buffer `target`.
[[nodiscard]] inline SensorRef producer_stall_rate(std::string target) {
  return SensorRef{std::move(target), SensorKind::kProducerStallRate};
}
/// Consumer-side stall rate (blocks/s) of the buffer `target`.
[[nodiscard]] inline SensorRef consumer_stall_rate(std::string target) {
  return SensorRef{std::move(target), SensorKind::kConsumerStallRate};
}
/// Current value of the sensor component `target` (RateSensor/LatencySensor)
/// or the current rate of the AdaptivePump `target`.
[[nodiscard]] inline SensorRef probe_value(std::string target) {
  return SensorRef{std::move(target), SensorKind::kProbeValue};
}
/// Rate actuation of the AdaptivePump named `target` (kEventQualityHint).
[[nodiscard]] inline ActuatorRef pump_rate(std::string target) {
  return ActuatorRef{std::move(target), ActuatorKind::kPumpRate};
}
/// Raw kEventQualityHint(double) to any component named `target`.
[[nodiscard]] inline ActuatorRef quality_hint(std::string target) {
  return ActuatorRef{std::move(target), ActuatorKind::kQualityHint};
}

// -- resolution -----------------------------------------------------------------

/// Resolve against a single-runtime realization: direct probes and local
/// control events. Throws CompositionError if the name is unknown or the
/// component's type does not fit the kind.
[[nodiscard]] FeedbackLoop::Reading resolve_reading(Realization& real,
                                                    const SensorRef& s);
[[nodiscard]] FeedbackLoop::Actuate resolve_actuate(Realization& real,
                                                    const ActuatorRef& a);

/// Resolve against a sharded realization for a loop homed on `home_shard`:
/// congestion refs read the buffer's atomics, cut or not, local probe refs
/// sample through try_sample_component, and foreign probe values are
/// served from a shard-side cache refreshed every `probe_period` (<= 0
/// picks a 25ms default; make_loop passes the loop period).
[[nodiscard]] FeedbackLoop::Reading resolve_reading(
    shard::ShardedRealization& sr, const SensorRef& s, int home_shard,
    rt::Time probe_period = 0);
/// Actuations are location-transparent by construction: the event enqueues
/// onto the target's shard through the thread-safe external path.
[[nodiscard]] FeedbackLoop::Actuate resolve_actuate(
    shard::ShardedRealization& sr, const ActuatorRef& a);

// -- whole-loop binding ---------------------------------------------------------

/// Everything a feedback loop needs, with both ends as named endpoints.
struct LoopSpec {
  std::string name;
  rt::Time period = rt::milliseconds(50);
  SensorRef sensor;
  double setpoint = 0.0;
  PIController controller{0.0, 0.0, 0.0, 0.0};
  ActuatorRef actuator;
};

/// Bind a loop on a single runtime.
[[nodiscard]] std::unique_ptr<FeedbackLoop> make_loop(Realization& real,
                                                      LoopSpec spec);

/// Bind a loop on a sharded realization. `home_shard` < 0 picks the natural
/// home: a cut sensor buffer's consumer shard (where congestion is
/// observed), else the sensor component's shard. The loop's task runs on that shard's
/// runtime; construction, start/stop and destruction are routed there, so
/// this is safe to call from any kernel thread while the group runs.
[[nodiscard]] std::unique_ptr<FeedbackLoop> make_loop(
    shard::ShardedRealization& sr, LoopSpec spec, int home_shard = -1);

}  // namespace infopipe::fb
