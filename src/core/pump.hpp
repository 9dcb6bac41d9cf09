// Pumps and other drivers (§2.2, §3.1).
//
// "There are pumps to keep the information flowing, pulling items from
// upstream and pushing them downstream." Every activity in a pipeline
// originates from a driver: a pump, an active source, or an active sink.
// Each driver gets one thread that operates the pipeline as far as the next
// passive component up- and downstream; the driver encapsulates all
// interaction with the underlying scheduler (priorities, deadlines,
// reservations) so that the application programmer chooses timing and
// scheduling policies simply by choosing pumps and parameters.
//
// The paper identifies at least two classes: clock-driven pumps operating at
// a constant rate, and pumps that adjust their speed to the state of other
// pipeline components (relying on buffer blocking, or driven by feedback).
// All of those are provided here; new policies are added by deriving a new
// pump — the pump developer deals with scheduling so application programmers
// never do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "rt/types.hpp"

namespace infopipe {

/// Everything that parameterizes a pump in one value (PR 6). The named
/// constructors still exist; the spec form is how batch-aware pumps are
/// declared:
///
///     FreeRunningPump mover(PumpSpec{.name = "mover", .max_batch = 32});
///
/// `max_batch` bounds how many items one fire may drain through the span
/// path; 1 (the default) is the classic one-item-per-cycle pump, bit-
/// identical to every pipeline built before batching existed. Clock-driven
/// pumps default to 1 deliberately — bursting a clocked pump changes its
/// rate semantics, so opting in is an explicit per-pump decision.
struct PumpSpec {
  std::string name;
  double rate_hz = 0.0;  ///< required by clocked/adaptive pumps, else unused
  rt::Priority priority = rt::kPriorityData;
  std::size_t max_batch = 1;
};

/// Base for all components that own a thread and drive a pipeline section.
class Driver : public Component {
 public:
  /// Scheduling priority for this driver's thread; messages it sends carry a
  /// constraint with this priority, so the whole coroutine set follows (§4).
  [[nodiscard]] rt::Priority priority() const noexcept { return priority_; }
  void set_priority(rt::Priority p) noexcept { priority_ = p; }

  /// Items moved through this driver so far.
  [[nodiscard]] std::uint64_t items_pumped() const noexcept {
    return items_pumped_;
  }

  /// Estimated (or worst-case) execution time of one cycle, used to make a
  /// CPU reservation at start (§3.1). Zero = no reservation requested.
  void set_cost_estimate(rt::Time per_cycle) noexcept {
    cost_estimate_ = per_cycle;
  }
  [[nodiscard]] rt::Time cost_estimate() const noexcept {
    return cost_estimate_;
  }

  /// Nominal cycle period for reservation purposes; nullopt for drivers
  /// without an intrinsic rate (free-running pumps pace off buffers).
  [[nodiscard]] virtual std::optional<rt::Time> nominal_period() const {
    return std::nullopt;
  }

  /// Cycles that started after their scheduled fire time (the pipeline was
  /// busier than the rate allows). The observability behind §3.1's
  /// "readjust thread scheduling parameters as the pipeline runs".
  [[nodiscard]] std::uint64_t deadline_misses() const noexcept {
    return deadline_misses_;
  }

  /// What to do when a pull yields a nil item (empty buffer, nil policy).
  enum class NilPolicy { kSkipCycle, kForward };
  void set_nil_policy(NilPolicy p) noexcept { nil_policy_ = p; }
  [[nodiscard]] NilPolicy nil_policy() const noexcept { return nil_policy_; }

  /// Upper bound on items moved per fire through the batched span path
  /// (PumpSpec::max_batch). 1 = classic per-item cycling. The effective
  /// value falls back to 1 when the wiring found no span-capable chain on
  /// either side.
  void set_max_batch(std::size_t n) noexcept { max_batch_ = n == 0 ? 1 : n; }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

 protected:
  Driver(std::string name, rt::Priority priority)
      : Component(std::move(name)), priority_(priority) {}
  explicit Driver(const PumpSpec& spec)
      : Component(spec.name), priority_(spec.priority) {
    set_max_batch(spec.max_batch);
  }

  // -- the driver protocol, executed on the driver's thread -------------------

  /// Called when pumping starts; reset rate state.
  virtual void prepare(rt::Time now) { (void)now; }

  /// Absolute time of the next cycle; return `now` (or anything <= now) to
  /// fire immediately. While waiting, the thread stays responsive to control
  /// events.
  [[nodiscard]] virtual rt::Time next_fire(rt::Time now) = 0;

  /// Move one item. Implemented by the driver kind (pump / source / sink);
  /// throws EndOfStream to end the flow.
  virtual void cycle() = 0;

  /// Observation hook: every item that passes through. Feedback pumps use
  /// this to measure.
  virtual void observe(const Item& x) { (void)x; }

  [[nodiscard]] Item pull_prev();
  void push_next(Item x);
  /// Batched twins: fill `out` from upstream / move a burst downstream.
  /// Only callable when span_links_wired() — the driver cycle checks.
  [[nodiscard]] std::size_t pull_prev_span(ItemSpan out);
  void push_next_span(ItemSpan xs);
  [[nodiscard]] bool has_push_link() const noexcept {
    return static_cast<bool>(push_link_);
  }

  /// How many items the next fire may move: max_batch(), clamped to 1 when
  /// the chain has no span glue.
  [[nodiscard]] std::size_t effective_batch(bool need_pull,
                                            bool need_push) const noexcept;

  /// Scratch the batched cycle drains into; sized lazily to max_batch().
  [[nodiscard]] ItemSpan batch_scratch();

  /// Record one burst's size into the core.batch_items histogram.
  void note_batch(std::size_t n);

  std::uint64_t items_pumped_ = 0;
  std::uint64_t deadline_misses_ = 0;

 private:
  friend class Wiring;
  friend class Realization;

  rt::Priority priority_;
  NilPolicy nil_policy_ = NilPolicy::kSkipCycle;
  rt::Time cost_estimate_ = 0;
  std::size_t max_batch_ = 1;
  PullFn pull_link_;
  PushFn push_link_;
  PullSpanFn pull_span_link_;
  PushSpanFn push_span_link_;
  std::vector<Item> batch_;
};

// ---- Pumps (two active ends) ----------------------------------------------------

/// A pump pulls from upstream and pushes downstream, once per cycle.
class Pump : public Driver {
 public:
  [[nodiscard]] Style style() const final { return Style::kPump; }

 protected:
  using Driver::Driver;
  void cycle() override;
};

/// Clock-driven pump: fires at a constant rate, drift-free (the k-th cycle
/// is scheduled at start + k/rate, not at last + 1/rate).
class ClockedPump : public Pump {
 public:
  ClockedPump(std::string name, double rate_hz,
              rt::Priority priority = rt::kPriorityTimer);
  /// Spec form; spec.rate_hz must be positive. A clocked pump with
  /// max_batch > 1 drains a burst per tick — an explicit trade of rate
  /// smoothness for throughput (see PumpSpec).
  explicit ClockedPump(const PumpSpec& spec);

  [[nodiscard]] double rate_hz() const noexcept { return rate_hz_; }
  [[nodiscard]] std::optional<rt::Time> nominal_period() const override {
    return period_;
  }

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;

 private:
  double rate_hz_;
  rt::Time period_;
  rt::Time next_ = 0;
};

/// Free-running pump: "does not limit its rate at all and relies on buffers
/// to block the thread when a buffer is full or empty" (§3.1).
class FreeRunningPump : public Pump {
 public:
  explicit FreeRunningPump(std::string name,
                           rt::Priority priority = rt::kPriorityData);
  explicit FreeRunningPump(const PumpSpec& spec) : Pump(spec) {}

 protected:
  [[nodiscard]] rt::Time next_fire(rt::Time now) override { return now; }
};

/// Pump whose rate is adjusted while the pipeline runs — the building block
/// for feedback control (buffer fill levels, producer/consumer clock drift,
/// §3.1). set_rate() may be called from control-event handlers or from a
/// feedback controller.
class AdaptivePump : public Pump {
 public:
  AdaptivePump(std::string name, double initial_rate_hz,
               rt::Priority priority = rt::kPriorityTimer);
  /// Spec form; spec.rate_hz is the initial rate and must be positive.
  explicit AdaptivePump(const PumpSpec& spec);

  void set_rate(double rate_hz);
  [[nodiscard]] double rate_hz() const noexcept { return rate_hz_; }

  /// Adaptive pumps also react to kEventQualityHint events whose payload is
  /// a double rate in Hz.
  void handle_event(const Event& e) override;

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;

 private:
  double rate_hz_;
  rt::Time last_fire_ = 0;
  bool first_ = true;
};

// ---- Active endpoints (one active end) ---------------------------------------------

/// A source with its own activity: generates items and pushes them
/// downstream (e.g. a network receiver or a camera).
class ActiveSource : public Driver {
 public:
  [[nodiscard]] Style style() const final { return Style::kActiveSource; }

 protected:
  using Driver::Driver;
  /// Produce the next item; return Item::eos() to end the stream.
  [[nodiscard]] virtual Item generate() = 0;
  void cycle() override;
};

/// A clock-driven active source.
class ClockedSourceBase : public ActiveSource {
 public:
  ClockedSourceBase(std::string name, double rate_hz,
                    rt::Priority priority = rt::kPriorityTimer);
  [[nodiscard]] double rate_hz() const noexcept { return rate_hz_; }

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;

 private:
  double rate_hz_;
  rt::Time period_;
  rt::Time next_ = 0;
};

/// A sink with its own timing control, e.g. "audio devices that have their
/// own timing control can be implemented as a clock-driven active sink".
class ActiveSink : public Driver {
 public:
  [[nodiscard]] Style style() const final { return Style::kActiveSink; }

 protected:
  using Driver::Driver;
  virtual void consume(Item x) = 0;
  /// Notified when end-of-stream reaches this sink.
  virtual void on_eos() {}
  /// Batched path: consume a burst of data items (the cycle has already
  /// applied the nil policy). Default: the per-item adapter.
  virtual void consume_span(ItemSpan xs) {
    for (Item& x : xs) consume(std::move(x));
  }
  void cycle() override;

 private:
  friend class Realization;
};

/// A clock-driven active sink (the audio-device case from §3.1).
class ClockedSinkBase : public ActiveSink {
 public:
  ClockedSinkBase(std::string name, double rate_hz,
                  rt::Priority priority = rt::kPriorityTimer);
  [[nodiscard]] double rate_hz() const noexcept { return rate_hz_; }

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;

 private:
  double rate_hz_;
  rt::Time period_;
  rt::Time next_ = 0;
};

}  // namespace infopipe
