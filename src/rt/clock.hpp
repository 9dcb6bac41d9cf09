// Clock abstraction: the scheduler is written against this interface so the
// whole middleware can run either against the machine's monotonic clock or
// against a deterministic virtual clock (discrete-event simulation).
//
// The paper evaluated on real hardware with a real clock; we default to the
// virtual clock so every experiment in bench/ is deterministic and fast, and
// provide RealClock for wall-clock runs (see DESIGN.md §3, substitutions).
//
// A clock only tells time. Waiting is the Runtime's business: an idle
// virtual-clock runtime jumps its clock to the next timer (advance_to), and
// an idle real-clock runtime blocks its kernel thread in its own epoll set
// with the next timer as the timeout (rt/runtime.hpp, the park point).
#pragma once

#include "rt/types.hpp"

namespace infopipe::rt {

/// Interface used by the Runtime for all time queries.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time.
  [[nodiscard]] virtual Time now() const = 0;

  /// Returns true if the clock can be advanced programmatically (virtual
  /// time). The scheduler uses this to decide whether an idle period should
  /// jump the clock forward or block the hosting OS thread.
  [[nodiscard]] virtual bool is_virtual() const = 0;
};

/// Deterministic discrete-event clock. Time advances only via advance_to()
/// (from the idle scheduler, or from tests).
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(Time start = 0) : now_(start) {}

  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] bool is_virtual() const override { return true; }

  /// Move time forward. Moving backwards is a programming error and is
  /// ignored (time is monotonic).
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }
  void advance_by(Time d) { advance_to(now_ + d); }

 private:
  Time now_;
};

/// Monotonic wall-clock. now() is steady_clock relative to construction so
/// that timestamps are small and comparable with VirtualClock traces.
class RealClock final : public Clock {
 public:
  RealClock();

  [[nodiscard]] Time now() const override;
  [[nodiscard]] bool is_virtual() const override { return false; }

 private:
  Time epoch_;  // steady_clock time at construction, in ns
};

}  // namespace infopipe::rt
