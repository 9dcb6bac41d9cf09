#include "rt/clock.hpp"

#include <chrono>

namespace infopipe::rt {

namespace {
Time steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

RealClock::RealClock() : epoch_(steady_now_ns()) {}

Time RealClock::now() const { return steady_now_ns() - epoch_; }

}  // namespace infopipe::rt
