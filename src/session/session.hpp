// ip_session value types: sessions, QoS classes, jitter accounting.
//
// A *session* is one lightweight live flow stamped out of the session
// layer's shared plan (plan.hpp): a few dozen bytes of state — identity,
// QoS class, emission cadence, sequence counter — on a per-shard engine
// that was planned and realized exactly once. Everything in this header is
// plain data shared between the table (table.hpp), the acceptor
// (acceptor.hpp) and their tests; nothing here touches threads.
#pragma once

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

/// Session identity: the home shard in the low byte, then the session's
/// slot on that shard's engine, then the slot's generation — 32 bits in
/// all, so the whole id fits the `kind` field of an Item (the engine's
/// items carry it there). Routing a close, or a data item, to its shard is
/// a mask; finding its record on the engine is a shift and a mask. A slot
/// is reissued with the next generation once its previous occupant is gone
/// from the engine, and a slot whose generations are used up is never
/// reissued, so no id repeats while the table lives. Generation 0 is never
/// issued, so no id is 0.
using SessionId = std::uint64_t;

inline constexpr int kSessionSlotBits = 17;
inline constexpr int kSessionGenerationBits = 7;
/// Live sessions one shard's engine can hold.
inline constexpr std::uint32_t kSessionSlots =
    std::uint32_t{1} << kSessionSlotBits;
/// Occupants one slot hosts over the table's lifetime (generations 1..127).
inline constexpr std::uint32_t kSessionGenerations =
    (std::uint32_t{1} << kSessionGenerationBits) - 1;

[[nodiscard]] inline constexpr SessionId make_session_id(
    int shard, std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<SessionId>(generation) << (8 + kSessionSlotBits)) |
         (static_cast<SessionId>(slot) << 8) |
         static_cast<SessionId>(shard & 0xFF);
}
[[nodiscard]] inline constexpr int shard_of_session(SessionId id) {
  return static_cast<int>(id & 0xFF);
}
[[nodiscard]] inline constexpr std::uint32_t slot_of_session(SessionId id) {
  return static_cast<std::uint32_t>(id >> 8) & (kSessionSlots - 1);
}
static_assert(make_session_id(255, kSessionSlots - 1, kSessionGenerations) ==
                  0xFFFFFFFFu,
              "a session id must fit the 32-bit Item::kind");

// ---- jitter accounting ------------------------------------------------------

/// Merged jitter picture across every shard's obs::Histogram.
struct JitterSnapshot {
  std::uint64_t samples = 0;
  std::uint64_t p50_ns = 0;  ///< upper bound of the bucket holding p50
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;  ///< upper bound of the highest non-empty bucket
};

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
