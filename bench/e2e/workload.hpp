// The workload interface and the protocol that runs every workload the same
// way: an open loop at the workload's fixed offered rate (CPU, memory,
// latency), short-lived instances of it (set-up), then one warm-up and
// several timed closed-loop repetitions (capacity).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2e {

/// One closed-loop repetition on a freshly built instance: `items` items,
/// or — when items is 0 — as many as the system moves in `seconds` (the
/// warm-up, which sizes the timed repetitions).
struct ClosedSpec {
  std::uint64_t items = 0;
  double seconds = 1.0;
  bool traced = false;  ///< probes inserted (their marks are discarded)
};

/// The open loop: `seconds` of input at the offered rate. Traced when a
/// book is given; the probes then fill it.
struct OpenSpec {
  double seconds = 10.0;
  TraceBook* book = nullptr;
};

/// What one phase reports.
struct Phase {
  double setup_s = 0.0;  ///< build, plan, realize, start (+ connect/opens)
  double setup_cpu_s = 0.0;  ///< the same in CPU time of every thread
  double realize_s = 0.0;    ///< the realization constructor(s) alone
  std::size_t plan_threads = 0;  ///< user-level threads the plan allocated
  std::uint64_t attempted = 0;   ///< items offered to the system
  std::uint64_t ok = 0;          ///< items delivered intact
  std::vector<std::string> errors;

  // closed loop: capacity = moved / busy_s
  std::uint64_t moved = 0;
  double busy_s = 0.0;

  // open loop, after its warm-up
  WindowedLatency latency;  ///< due time -> sink
  double cpu_us_per_item = 0.0;  ///< CpuMeter

  /// Per-layer counters of a traced phase (names from the protocol's list).
  std::vector<Metric> layer;
};

/// Times one set-up from construction to stop(): wall clock and the CPU
/// time of the whole process, which counts threads the set-up starts.
class SetupClock {
 public:
  SetupClock() : at_(now_ns()), cpu_(process_cpu_s()) {}
  void stop(Phase& p) const {
    p.setup_cpu_s = process_cpu_s() - cpu_;
    p.setup_s = static_cast<double>(now_ns() - at_) / 1e9;
  }
  [[nodiscard]] Ns at() const noexcept { return at_; }

 private:
  Ns at_;
  double cpu_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Span names of a traced item, in path order (see TraceBook).
  [[nodiscard]] virtual std::vector<std::string> spans() const = 0;
  /// Offered rate of the open loop, items/s.
  [[nodiscard]] virtual double offered_rate() const = 0;
  virtual Phase closed(const ClosedSpec& s) = 0;
  virtual Phase open(const OpenSpec& s) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_coroutine_chain(const Args& a);
[[nodiscard]] std::unique_ptr<Workload> make_shard_cut(const Args& a);
[[nodiscard]] std::unique_ptr<Workload> make_tcp_video(const Args& a);
[[nodiscard]] std::unique_ptr<Workload> make_session_churn(const Args& a);

/// Runs `w` through the phases plan_budget() lays out. Untraced runs
/// report the end-to-end metrics; traced runs report the per-layer ones,
/// every workload the same list (a layer a workload does not exercise
/// reads 0), plus the tracing overhead.
[[nodiscard]] Result run_workload(const Args& a, Workload& w);

}  // namespace e2e
