// Process-wide platform configuration (ipcore).
//
// The platform, not the programmer, picks every mechanism: payload
// representation by payload type and size, batched movement by each
// Driver's max_batch, shared session engines, elastic topology and the
// replay taps are always on. What is left to set is the one value that
// changes which schedules are explored, never what a pipeline delivers.
#pragma once

#include <cstdint>

namespace infopipe {

struct InfopipeConfig {
  /// Base seed for every randomized test and bench in the tree
  /// (INFOPIPE_SEED, default 1). Suites that roll their own std::mt19937
  /// derive their per-case seeds from this one value, and scripts/check.sh
  /// prints it on failure — so a sanitizer churn failure reproduces with
  /// one env var. Changing it changes which schedules are explored, never
  /// correctness.
  std::uint64_t seed = 1;

  // Not settable: every mechanism is always on. The names exist only
  // because the bench/e2e host record prints them.
  static constexpr bool pooling = true;
  static constexpr bool batching = true;
  static constexpr bool inline_payloads = true;
  static constexpr bool real_net = true;
  static constexpr bool record = true;
  static constexpr bool sessions = true;
  static constexpr bool elastic = true;
};

/// The mutable singleton. First use reads INFOPIPE_SEED.
[[nodiscard]] InfopipeConfig& config() noexcept;

}  // namespace infopipe
