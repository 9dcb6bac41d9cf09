// ip_session engine internals: the components every shard engine is built
// from, shared between the plan analysis (plan.cpp — which realizes nothing
// but must plan the exact pipeline shape) and the table (table.cpp — which
// realizes one engine per shard and stamps sessions onto them).
//
// Middleware-internal: applications talk to SessionTable / SessionAcceptor;
// tests may reach in for white-box assertions.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/component.hpp"
#include "core/item.hpp"
#include "core/pump.hpp"
#include "session/session.hpp"

namespace infopipe::session {

/// Per-shard state shared between the engine components, the table's query
/// surface and the feedback loop: everything cross-thread-readable is an
/// atomic or the lock-free histogram; nothing here is touched under a lock
/// on the emission path.
struct ShardState {
  std::array<std::atomic<double>, kNumClasses> mult;  ///< class rate multiplier
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> live{0};
  JitterHistogram jitter;

  ShardState() {
    for (auto& m : mult) m.store(1.0, std::memory_order_relaxed);
  }
};

/// Deterministic payload for (id, seq): the shared engine and any per-flow
/// reference source fill from this one function, which is what makes their
/// per-session digests bit-identical.
inline void fill_payload(std::uint8_t* b, std::size_t n, SessionId id,
                         std::uint64_t seq) {
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(
        (id >> ((i % 8) * 8)) ^ ((seq + i) * 131u) ^ 0x5Au);
  }
}

/// The session item: payload = fill_payload(id, seq), kind = id (fits — see
/// make_session_id), timestamp = scheduled due time (so a downstream
/// LatencySensor measures lag against the cadence, not arrival-to-arrival).
/// `scratch` avoids a per-item allocation for payloads beyond the inline
/// capacity.
[[nodiscard]] inline Item make_session_item(std::vector<std::uint8_t>& scratch,
                                            SessionId id, std::uint64_t seq,
                                            rt::Time due, std::size_t bytes) {
  scratch.resize(bytes);
  fill_payload(scratch.data(), bytes, id, seq);
  Item x = Item::of_bytes(scratch.data(), bytes);
  x.seq = seq;
  x.kind = static_cast<int>(id);
  x.timestamp = due;
  return x;
}

/// One step of the per-session stream digest (see StreamDigest).
inline void digest_item(StreamDigest& d, const Item& x) {
  d.update(x.bytes_data(), x.bytes_size());
  d.update_u64(x.seq);
  d.update_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x.kind)));
}

// ---- the engine components --------------------------------------------------

/// The shard engine's one driver: a timing wheel of live sessions over ONE
/// thread. Each session is a wheel entry (due time, id) plus a Sess record;
/// opening a session is a queue push + heap insert — no planning, no
/// realization, no thread creation. That is the whole point of ip_session.
///
/// Timing: next_fire() returns min(earliest due, now + idle_poll). The
/// driver protocol sleeps until exactly the returned instant and does not
/// re-evaluate on control traffic, so the idle-poll bound is what puts a
/// ceiling on admission latency when the wheel is empty or far in the
/// future. One cycle() emits every session due at the fire time (bounded by
/// kMaxEmitPerCycle to stay responsive to control events).
///
/// Cadence under pressure: the effective period of a session is
/// nominal_period / mult[class], with mult written by the ClassGovernor
/// below (gold stays at 1.0; silver and bronze shrink when the shard's lag
/// grows). Emission order between sessions due at the same instant is heap
/// order on (due, id) — deterministic, so manual-mode runs replay exactly.
class SessionSource : public ActiveSource {
 public:
  SessionSource(std::string name, ShardState* st, double idle_poll_hz,
                double min_mult);

  // External (any thread): admission/close ops enqueue under a mutex and
  // are drained onto the wheel at the next prepare()/next_fire() on the
  // driver thread — wheel and Sess records themselves are driver-only.
  void enqueue_open(SessionId id, SessionParams p);
  void enqueue_close(SessionId id);

  /// Live sessions on this shard (maintained by the table at open/close,
  /// so it is accurate immediately, not at the next wheel drain).
  [[nodiscard]] std::uint64_t live() const noexcept {
    return st_->live.load(std::memory_order_relaxed);
  }

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;
  void cycle() override;
  /// Unused: cycle() is overridden wholesale (a wheel fire may emit zero or
  /// many items, which the one-item generate() contract cannot express).
  [[nodiscard]] Item generate() override { return Item::eos(); }

 private:
  static constexpr std::size_t kMaxEmitPerCycle = 1024;

  struct Sess {
    SessionParams params;
    rt::Time period = 0;  ///< nominal, from params.rate_hz
    rt::Time due = 0;
    std::uint64_t seq = 0;
  };
  struct WheelEntry {
    rt::Time due = 0;
    SessionId id = 0;
    bool operator>(const WheelEntry& o) const {
      return due != o.due ? due > o.due : id > o.id;
    }
  };
  struct PendingOp {
    bool open = false;
    SessionId id = 0;
    SessionParams params;
  };

  void drain_pending(rt::Time now);

  ShardState* st_;
  rt::Time idle_poll_;
  double min_mult_;
  std::priority_queue<WheelEntry, std::vector<WheelEntry>,
                      std::greater<WheelEntry>>
      wheel_;
  std::unordered_map<SessionId, Sess> sessions_;
  std::vector<std::uint8_t> scratch_;

  std::mutex pending_mu_;
  std::vector<PendingOp> pending_;
};

/// Identity pass-through holding the per-class cadence multipliers. The
/// per-shard feedback loop actuates it by name with kEventQualityHint(h),
/// h in [min_mult, 1]: gold keeps 1.0, silver degrades half as far as
/// bronze — under pressure the controller lowers h and gold sessions
/// effectively steal pump rate from bronze ones. Handlers run on the shard
/// thread; the multipliers are atomics only because the table's query
/// surface reads them from outside.
class ClassGovernor : public FunctionComponent {
 public:
  ClassGovernor(std::string name, ShardState* st, double min_mult)
      : FunctionComponent(std::move(name)), st_(st), min_mult_(min_mult) {}

  void handle_event(const Event& e) override;

  [[nodiscard]] int hints_applied() const noexcept {
    return hints_.load(std::memory_order_relaxed);
  }

 protected:
  Item convert(Item x) override { return x; }

 private:
  ShardState* st_;
  double min_mult_;
  std::atomic<int> hints_{0};
};

/// Terminal sink: per-session stream digest plus inter-item jitter — the
/// absolute difference between the actual arrival gap and the scheduled
/// gap, |(now - prev_arrival) - (due - prev_due)| — recorded into the
/// shard's lock-free histogram. The record map is driver-thread-only (the
/// sink shares the source's section); the table routes external digest
/// queries through the shard thread.
class SessionSink : public PassiveSink {
 public:
  SessionSink(std::string name, ShardState* st)
      : PassiveSink(std::move(name)), st_(st) {}

  void consume(Item x) override;

  /// Per-session digest so far; 0 for an unknown session. Driver-thread
  /// (or stopped-engine) access only.
  [[nodiscard]] std::uint64_t digest_of(SessionId id) const;
  [[nodiscard]] std::uint64_t items_of(SessionId id) const;

 private:
  struct Rec {
    StreamDigest digest;
    std::uint64_t seen = 0;
    rt::Time prev_due = 0;
    rt::Time prev_arrival = 0;
  };

  ShardState* st_;
  std::unordered_map<SessionId, Rec> recs_;
};

}  // namespace infopipe::session
