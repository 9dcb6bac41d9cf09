// RealizationHandle: the one control surface over every realized pipeline.
//
// A single-runtime Realization and a ShardedRealization expose the same
// conceptual operations — broadcast a control event, describe what the
// planner decided, snapshot runtime progress — but until this interface
// existed, session/feedback/example code had to branch on the concrete type
// (or be written twice). RealizationHandle is the abstract face: control()
// is THE lifecycle entry point (start/stop/shutdown are spellings of it),
// plan_info() is the planner's decision as data, stats_snapshot() and
// metrics_snapshot() are the progress counters. Anything that merely drives
// a realized pipeline takes a RealizationHandle&.
//
// Threading semantics follow the concrete type: ShardedRealization's
// post_event() is thread-safe (events enqueue onto every shard), while
// Realization's post_event() must run on its owning runtime's thread (use
// post_event_external from outside). control() inherits the same contract.
#pragma once

#include <string>

#include "core/event.hpp"
#include "core/introspect.hpp"
#include "obs/metrics.hpp"

namespace infopipe {

class RealizationHandle {
 public:
  virtual ~RealizationHandle() = default;

  /// THE lifecycle entry point: broadcasts one control event to every
  /// component, in pipeline order per thread. Everything that starts, stops
  /// or tears down a realized pipeline is a spelling of control(): the
  /// start()/stop()/shutdown() members forward here, and raw
  /// post_event(Event{...}) is the same call with the Event spelled out.
  virtual void control(const Event& e) = 0;
  /// Convenience spelling for payload-less lifecycle events
  /// (kEventStart/kEventStop/kEventShutdown/...).
  void control(int event_type) { control(Event{event_type}); }

  /// Broadcasts kEventStart: pumps begin moving data. = control(kEventStart)
  /// (ShardedRealization additionally barriers on every shard's dispatch).
  virtual void start() { control(Event{kEventStart}); }
  /// Broadcasts kEventStop: pumps finish the current item and pause.
  virtual void stop() { control(Event{kEventStop}); }
  /// Broadcasts kEventShutdown: all middleware threads terminate.
  virtual void shutdown() { control(Event{kEventShutdown}); }

  /// Broadcast to every component. Same behaviour as control(); kept as a
  /// named operation because application code posts data-carrying events
  /// (quality hints, sensor reports) through it.
  virtual void post_event(const Event& e) = 0;

  /// What the planner decided, as data: sections, drivers, the mode and
  /// activity style of every hosted component, and where coroutines were
  /// allocated. Immutable for the life of the realization.
  [[nodiscard]] virtual PlanInfo plan_info() const = 0;

  /// Runtime statistics as data: items pumped per driver, buffer traffic
  /// (cut buffers as channel rows), timestamped by the runtime clock.
  [[nodiscard]] virtual StatsSnapshot stats_snapshot() = 0;

  /// Every registry row the realization's runtime(s) publish.
  [[nodiscard]] virtual obs::MetricsSnapshot metrics_snapshot() = 0;

  /// Human-readable rendering of plan_info(); concrete types may extend it
  /// (ShardedRealization prepends the partition summary).
  [[nodiscard]] virtual std::string describe() const {
    return to_string(plan_info());
  }

  /// Human-readable rendering of stats_snapshot(). Companion to describe()
  /// for a running pipeline.
  [[nodiscard]] std::string stats_report() { return to_string(stats_snapshot()); }

 protected:
  RealizationHandle() = default;
  RealizationHandle(const RealizationHandle&) = default;
  RealizationHandle& operator=(const RealizationHandle&) = default;
};

}  // namespace infopipe
