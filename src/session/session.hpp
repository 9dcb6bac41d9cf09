// ip_session value types: sessions, QoS classes, jitter accounting.
//
// A *session* is one lightweight live flow stamped out of the session
// layer's shared plan (plan.hpp): a few dozen bytes of state — identity,
// QoS class, emission cadence, sequence counter — on a per-shard engine
// that was planned and realized exactly once. Everything in this header is
// plain data shared between the table (table.hpp), the acceptor
// (acceptor.hpp) and their tests; nothing here touches threads.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace infopipe::session {

/// Service classes in strict priority order. Under pressure the per-shard
/// governor steals pump cadence from the lower classes first: gold keeps
/// its full rate, silver degrades half as fast as bronze.
enum class QosClass : int { kGold = 0, kSilver = 1, kBronze = 2 };

inline constexpr int kNumClasses = 3;

[[nodiscard]] std::string to_string(QosClass c);

/// Parses "gold" / "silver" / "bronze" (the wire spelling of the session
/// control protocol, net/wire.hpp kSessionOpen). Returns false on anything
/// else and leaves `out` untouched.
[[nodiscard]] bool parse_qos(const std::string& s, QosClass& out);

/// What a client asks for when opening a session.
struct SessionParams {
  QosClass qos = QosClass::kBronze;
  double rate_hz = 10.0;          ///< nominal emission cadence
  std::size_t payload_bytes = 64; ///< deterministic payload size per item
};

/// Session identity. The home shard is folded into the low byte so routing
/// a close (or a data item, whose kind carries the id) never needs a
/// table lookup: shard_of_session(id) is a mask. The counter part is kept
/// below 2^23 so the whole id also fits the int32 `kind` field of an Item.
using SessionId = std::uint64_t;

[[nodiscard]] inline constexpr SessionId make_session_id(
    std::uint64_t counter, int shard) {
  return (counter << 8) | static_cast<std::uint64_t>(shard & 0xFF);
}
[[nodiscard]] inline constexpr int shard_of_session(SessionId id) {
  return static_cast<int>(id & 0xFF);
}

// ---- jitter accounting ------------------------------------------------------

/// Lock-free log2-bucketed histogram of inter-item jitter (nanoseconds).
/// record() is wait-free from any shard thread; snapshots merge across
/// shards by plain addition, so the table can report one fleet-wide p99
/// while 100k sessions keep emitting.
class JitterHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t ns) noexcept {
    int b = 0;
    while (b < kBuckets - 1 && ns >= (std::uint64_t{1} << b)) ++b;
    buckets_[static_cast<std::size_t>(b)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Adds this histogram's counts into `out` (a merge accumulator).
  void merge_into(std::array<std::uint64_t, kBuckets>& out) const noexcept {
    for (int b = 0; b < kBuckets; ++b) {
      out[static_cast<std::size_t>(b)] +=
          buckets_[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Merged jitter picture across every shard's histogram.
struct JitterSnapshot {
  std::uint64_t samples = 0;
  std::uint64_t p50_ns = 0;  ///< upper bound of the bucket holding p50
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;  ///< upper bound of the highest non-empty bucket
};

/// Quantile over merged bucket counts: the upper bound (2^b ns) of the
/// bucket containing the q-th sample. q in [0,1].
[[nodiscard]] std::uint64_t quantile_ns(
    const std::array<std::uint64_t, JitterHistogram::kBuckets>& counts,
    double q);

// ---- stream digest ----------------------------------------------------------

/// FNV-1a 64 over a session's item stream, hashed per item in sequence
/// order: payload bytes, then seq and kind as explicit big-endian words.
/// Timestamps are deliberately NOT hashed — they are clock-dependent while
/// the information content is not (the distributed_player convention).
/// Per-session digests are interleaving-independent: the only ordering that
/// matters is each session's own seq order, which the shared engine and a
/// per-flow reference pipeline produce identically.
struct StreamDigest {
  std::uint64_t h = 1469598103934665603ull;

  void update(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void update_u64(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    for (int i = 7; i >= 0; --i) {
      b[i] = static_cast<std::uint8_t>(v & 0xFF);
      v >>= 8;
    }
    update(b, 8);
  }
};

}  // namespace infopipe::session
