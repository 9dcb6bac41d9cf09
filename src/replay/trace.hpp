// The schedule trace (ip_replay): a compact, versioned binary record of
// every nondeterministic decision a live run made, the hops it took on the
// way (kHop frames: blocks, drops, control dispatches, hand-offs), plus the
// per-flow digests that define what "the same run" means.
//
// Layout (all integers little-endian, like net/wire's frames):
//
//   header   "IPRT" u16 version  u8 n_shards  u8 flags  u64 seed
//            i64 end_time_ns  u32 n_flows  u32 n_sites  u32 n_frames
//   flows    n_flows x { u16 name_len, name bytes, u64 digest, u64 items }
//   sites    n_sites x { u16 name_len, name bytes }   (kHop aux32 indexes)
//   frames   n_frames x 32 bytes (see Frame)
//
// `flags` is reserved: the recorder writes 0 and readers ignore it.
//
// A Frame is one decision point. The five generic fields (t, a, b, aux16,
// aux32) mean different things per kind — the per-kind constructors in
// trace.cpp are the one place that mapping lives; consumers go through the
// named accessors below.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/hooks.hpp"

namespace infopipe::replay {

/// Bump when the encoding changes; decode() rejects other versions.
inline constexpr std::uint16_t kTraceVersion = 2;

/// Decision-point taxonomy (ARCHITECTURE §18). Stable on-disk values.
enum class FrameKind : std::uint8_t {
  kDispatch = 0,   ///< ULT dispatch choice          a=tid       aux32=msg_type
  kTimer = 1,      ///< timer firing                 a=target    b=when_ns
  kChanPush = 2,   ///< ring publish                 a=name_hash b=first_seq
  kChanPop = 3,    ///< ring consume                 a=name_hash b=first_seq
  kMigration = 4,  ///< phase boundary  aux16=phase  a=from      b=to
  kStash = 5,      ///< pool stash edge aux16=edge   a=n blocks
  kMark = 6,       ///< user-defined marker          a=tag
  kScale = 7,      ///< topology change aux16=0 add/1 retire  a=shard
                   ///<                 aux32=live shards after the event
  kHop = 8,        ///< hop (no decision)  aux16=Hop  aux32=site index
                   ///<                    a, b as HopArgs (two's complement)
};
inline constexpr int kNumFrameKinds = 9;

/// "dispatch", "timer", ..., "hop": the names JSON lines and metrics use.
[[nodiscard]] const char* to_string(FrameKind k);
/// "drop", "block", "control", "hand-off".
[[nodiscard]] const char* to_string(Hop h);

/// One recorded decision, 32 bytes encoded.
struct Frame {
  std::uint8_t kind = 0;    ///< FrameKind
  std::uint8_t shard = 0;   ///< shard attribution (0xff: unknown)
  std::uint16_t aux16 = 0;  ///< kind-specific small field
  std::uint32_t aux32 = 0;  ///< kind-specific field (msg type, n, section)
  std::int64_t t = 0;       ///< ns since recording started
  std::uint64_t a = 0;      ///< kind-specific wide field
  std::uint64_t b = 0;      ///< kind-specific wide field

  [[nodiscard]] FrameKind frame_kind() const noexcept {
    return static_cast<FrameKind>(kind);
  }
};
inline constexpr std::size_t kFrameBytes = 32;

inline constexpr std::uint8_t kShardUnknown = 0xff;

/// Thrown by decode()/load() on malformed input.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Trace {
  struct Meta {
    std::uint16_t version = kTraceVersion;
    std::uint8_t n_shards = 0;
    std::uint8_t flags = 0;        ///< reserved; the recorder writes 0
    std::uint64_t seed = 0;        ///< config().seed at record time
    std::int64_t end_time_ns = 0;  ///< timestamp of the last decision frame
  };

  /// What a flow's item stream hashed to (session::StreamDigest order:
  /// payload bytes, then seq, then kind — timestamps excluded, so the
  /// digest is interleaving-independent).
  struct Flow {
    std::string name;
    std::uint64_t digest = 0;
    std::uint64_t items = 0;
  };

  Meta meta;
  std::vector<Flow> flows;
  std::vector<std::string> sites;  ///< kHop frames' site names
  std::vector<Frame> frames;

  [[nodiscard]] const Flow* find_flow(const std::string& name) const;

  /// Frame count per FrameKind (index by static_cast<int>(kind)).
  [[nodiscard]] std::vector<std::uint64_t> kind_counts() const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws TraceError on bad magic, unknown version, or truncation.
  [[nodiscard]] static Trace decode(const std::uint8_t* data, std::size_t n);

  void save(const std::string& path) const;  ///< throws TraceError on I/O
  [[nodiscard]] static Trace load(const std::string& path);

  /// One-line human summary ("trace v2: 2 shards, 13482 frames ...").
  [[nodiscard]] std::string summary() const;

  /// One JSON object per frame, in recorded order: {"t": ns, "kind":
  /// "hop", "shard": 0, "hop": "block", "site": "buf", "a": 1, "b": 52000}
  /// (decision frames carry aux16/aux32 instead of hop/site).
  [[nodiscard]] std::string to_json_lines() const;
};

}  // namespace infopipe::replay
