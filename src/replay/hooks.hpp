// The tap points (ip_replay): the platform's one instrumentation stream.
//
// Every source of nondeterminism the middleware itself introduces — which
// mailbox message a ULT dispatches next, which ring positions a cut buffer
// publishes and consumes, when a migration quiesces/transfers/resumes, when
// a pool block rides the foreign-return stash, when a timer fires — funnels
// through one of the note_*() functions below, and so do the hops that
// decide nothing but show where an item's time goes (note_hop). The
// instrumented layers include ONLY this header: it is header-only, so a
// tap costs nothing at link time and, while no sink is installed, one
// relaxed atomic load plus a predictable branch at run time — the entire
// hot-path cost of a run that never records (bench_replay).
//
// A TapSink observes the stream: the ScheduleRecorder (a replay::Trace,
// hops included) or the HBChecker (happens-before over the channel/stash
// edges). Exactly one sink is installed at a time, so tracing a run and
// recording it are one act. Installation is process-global because a
// ShardGroup's kernel threads all tap the same stream. Install/uninstall
// only around a quiescent group — the sink pointer is read without a lock
// on hot paths, so a sink must outlive every thread that might still
// observe it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace infopipe::replay {

/// FNV-1a 64 over a byte string — identical constants to
/// session::StreamDigest. Channels hash their names with it once at
/// construction so frames identify rings without carrying strings.
[[nodiscard]] inline std::uint64_t fnv1a(const void* p,
                                         std::size_t n) noexcept {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Which migration phase a note_migration() call marks.
enum class MigrationPhase : int { kQuiesce = 0, kTransfer = 1, kResume = 2 };

/// Which pool foreign-stash edge a note_stash() call marks.
enum class StashEdge : int { kReturn = 0, kAdopt = 1, kDrain = 2 };

/// What a note_hop() call marks. Hops decide nothing: the Replayer and the
/// HBChecker skip them.
enum class Hop : std::uint8_t {
  kDrop = 0,     ///< buffer: a=policy (0 newest, 1 oldest)  b=fill;
                 ///< link: a=bytes  b=0 queue full, 1 random loss
  kBlock = 1,    ///< a buffer end blocked, then resumed  a=0 put, 1 take
                 ///<                                     b=wait ns
  kControl = 2,  ///< control event delivered  a=event type  b=targets
  kHandOff = 3,  ///< coroutine hand-off  a=coroutine tid  b=items moved
};

/// A hop's site name and hop-specific fields, computed by a note_hop()
/// call only while a sink is installed.
struct HopArgs {
  const char* site;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Observer of schedule decisions and hops. Methods are called from ANY kernel
/// thread hosting a shard, concurrently; implementations synchronize
/// internally. Pointers identify objects (runtimes, channels, pools) —
/// sinks map them to shard ids or vector-clock slots, never dereference.
class TapSink {
 public:
  virtual ~TapSink() = default;

  /// A ULT dispatch: runtime `rtm` popped a message of `msg_type` for
  /// thread `tid`. The per-runtime dispatch order IS the schedule.
  virtual void on_dispatch(const void* rtm, std::uint64_t tid,
                           int msg_type) = 0;

  /// A timer fired on `rtm` at (virtual or real) time `when` for `target`.
  virtual void on_timer(const void* rtm, std::int64_t when,
                        std::uint64_t target) = 0;

  /// Ring publish: `n` items entered channel `chan` (FNV hash `name_hash`
  /// of its name) at monotonic positions [first_seq, first_seq+n) from
  /// shard `shard`. Called after the tail store — the items are visible.
  virtual void on_chan_push(const void* chan, std::uint64_t name_hash,
                            std::uint64_t first_seq, std::uint64_t n,
                            int shard) = 0;

  /// Ring consume: `n` items left `chan` at [first_seq, first_seq+n) on
  /// shard `shard`. Called after the head store.
  virtual void on_chan_pop(const void* chan, std::uint64_t name_hash,
                           std::uint64_t first_seq, std::uint64_t n,
                           int shard) = 0;

  /// A migration phase boundary for `section` moving `from` -> `to`.
  virtual void on_migration(std::uint32_t section, int from, int to,
                            MigrationPhase phase) = 0;

  /// A pool foreign-return edge: `n` blocks crossed pool `pool`'s stash
  /// (kReturn: a foreign thread parked one; kAdopt: ownership changed to
  /// the releasing side; kDrain: the owner absorbed `n` parked blocks).
  virtual void on_stash(const void* pool, StashEdge edge,
                        std::uint64_t n) = 0;

  /// An explicit shared-memory access declaration (`obj`, read or write)
  /// for the happens-before checker. Production code never calls this; it
  /// is the hook tests use to seed deliberate cross-shard accesses.
  virtual void on_shared_access(const void* obj, bool write) = 0;

  /// A topology change: shard `shard` joined (`added`) or retired, leaving
  /// `live_after` live shards. `rtm`/`pool` identify the shard's runtime
  /// and payload pool so a sink can extend its attribution maps — the one
  /// tap where object identities arrive AFTER attach time.
  virtual void on_scale(const void* rtm, const void* pool, int shard,
                        bool added, int live_after) = 0;

  /// A hop on runtime `rtm` at component or subsystem `site` (a string the
  /// sink copies; it need not outlive the call).
  virtual void on_hop(const void* rtm, Hop hop, const char* site,
                      std::int64_t a, std::int64_t b) = 0;
};

/// The installed sink (nullptr: every tap is the cheap branch). C++17
/// inline variable: one instance across all TUs, no link dependency.
inline std::atomic<TapSink*> g_tap_sink{nullptr};

/// Installs `s` (nullptr uninstalls). Returns the previous sink. Release
/// ordering pairs with the acquire load in sink(): a thread that observes
/// the new sink also observes everything initialized before installation.
inline TapSink* install_tap_sink(TapSink* s) noexcept {
  return g_tap_sink.exchange(s, std::memory_order_acq_rel);
}

[[nodiscard]] inline TapSink* tap_sink() noexcept {
  return g_tap_sink.load(std::memory_order_acquire);
}

// ---- the tap call sites use these ------------------------------------------
//
// The relaxed load is deliberate: when no sink is installed there is
// nothing to order, and when one is, install_tap_sink's acq_rel exchange
// plus the quiescent-install discipline provide the visibility.

inline void note_dispatch(const void* rtm, std::uint64_t tid,
                          int msg_type) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_dispatch(rtm, tid, msg_type);
  }
}

inline void note_timer(const void* rtm, std::int64_t when,
                       std::uint64_t target) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_timer(rtm, when, target);
  }
}

inline void note_chan_push(const void* chan, std::uint64_t name_hash,
                           std::uint64_t first_seq, std::uint64_t n,
                           int shard) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_chan_push(chan, name_hash, first_seq, n, shard);
  }
}

inline void note_chan_pop(const void* chan, std::uint64_t name_hash,
                          std::uint64_t first_seq, std::uint64_t n,
                          int shard) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_chan_pop(chan, name_hash, first_seq, n, shard);
  }
}

inline void note_migration(std::uint32_t section, int from, int to,
                           MigrationPhase phase) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_migration(section, from, to, phase);
  }
}

inline void note_stash(const void* pool, StashEdge edge,
                       std::uint64_t n) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_stash(pool, edge, n);
  }
}

inline void note_shared_access(const void* obj, bool write) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_shared_access(obj, write);
  }
}

inline void note_scale(const void* rtm, const void* pool, int shard,
                       bool added, int live_after) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    s->on_scale(rtm, pool, shard, added, live_after);
  }
}

/// `args()` returns the HopArgs; it runs only while a sink is installed, so
/// a dormant site pays no fill() load or name lookup.
template <typename Args>
inline void note_hop(const void* rtm, Hop hop, Args&& args) noexcept {
  if (TapSink* s = g_tap_sink.load(std::memory_order_relaxed)) {
    const HopArgs h = args();
    s->on_hop(rtm, hop, h.site, h.a, h.b);
  }
}

}  // namespace infopipe::replay
