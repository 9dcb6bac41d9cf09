// ip_session engine internals: the components every shard engine is built
// from, shared between the plan analysis (plan.cpp — which realizes nothing
// but must plan the exact pipeline shape) and the table (table.cpp — which
// realizes one engine per shard and stamps sessions onto them).
//
// Middleware-internal: applications talk to SessionTable / SessionAcceptor;
// tests may reach in for white-box assertions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/item.hpp"
#include "core/pump.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"

namespace infopipe::session {

/// Per-shard state shared between the engine components, the table's query
/// surface and the feedback loop: everything cross-thread-readable is an
/// atomic or the histogram (single writer: the shard's SessionSink);
/// nothing here is touched under a lock on the emission path.
struct ShardState {
  std::array<std::atomic<double>, kNumClasses> mult;  ///< class rate multiplier
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::uint64_t> live{0};
  obs::Histogram jitter;

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
/// SessionId), timestamp = scheduled due time (so a downstream
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

/// The shard engine's one driver: a hashed timing wheel of live sessions
/// over ONE thread. Each session owns a dense slot on the engine — its id
/// names the slot (session.hpp) — holding its record and its one wheel
/// link. Opening a session is a slot issue plus a queue push under one
/// mutex; no planning, no realization, no thread creation. That is the
/// whole point of ip_session.
///
/// The wheel (Varghese & Lauck's hashed wheel): time is cut into ticks of
/// 2^kTickShift ns, each tick hashed to one of kBuckets intrusive lists
/// threaded through the slots; an entry more than one revolution out stays
/// in its bucket until its own tick comes round. Entries of the ticks up to
/// the current one sit in a small (due, id) heap, so emission is in exact
/// (due, id) order and fires at the exact earliest due instant, as a single
/// (due, id) priority queue would.
///
/// Timing: next_fire() returns min(earliest due, now + idle_poll). The
/// driver protocol sleeps until exactly the returned instant and does not
/// re-evaluate on control traffic, so the idle-poll bound is what puts a
/// ceiling on admission latency when the wheel is empty or far in the
/// future. One cycle() emits every session due at the fire time, in spans
/// of up to kSpan items (bounded by kMaxEmitPerCycle to stay responsive to
/// control events).
///
/// Cadence under pressure: the effective period of a session is
/// nominal_period / mult[class], with mult written by the ClassGovernor
/// below (gold stays at 1.0; silver and bronze shrink when the shard's lag
/// grows). Emission order between sessions due at the same instant is
/// (due, id) — deterministic, so manual-mode runs replay exactly.
///
/// Close marks the session's record; its slot is freed when its wheel
/// entry next surfaces, and handed back to open() only then.
class SessionSource : public ActiveSource {
 public:
  SessionSource(std::string name, ShardState* st, double idle_poll_hz,
                double min_mult);

  // External (any thread): open() issues the session's slot and enqueues
  // it under a mutex; the queue is drained onto the wheel at the next
  // prepare()/next_fire() on the driver thread — wheel and session records
  // themselves are driver-only.

  /// Issues a fresh id on this engine (homed on `shard`) and enqueues the
  /// session's open. Throws std::length_error when the engine has no slot
  /// left to issue: kSessionSlots sessions live, or every other slot's
  /// generations used up.
  [[nodiscard]] SessionId open(int shard, SessionParams p);
  void enqueue_close(SessionId id);

  /// Live sessions on this shard (maintained by the table at open/close,
  /// so it is accurate immediately, not at the next wheel drain).
  [[nodiscard]] std::uint64_t live() const noexcept {
    return st_->live.load(std::memory_order_relaxed);
  }

 protected:
  void prepare(rt::Time now) override;
  [[nodiscard]] rt::Time next_fire(rt::Time now) override;
  /// Overridden wholesale: a wheel fire may emit zero or many spans.
  void cycle() override;

 private:
  static constexpr std::size_t kMaxEmitPerCycle = 1024;
  /// Items handed downstream per push_next_span.
  static constexpr std::size_t kSpan = 64;
  /// Tick width 2^16 ns (65.5 us); 8192 buckets make one revolution 537 ms,
  /// longer than the period of any session at 2 Hz and up.
  static constexpr int kTickShift = 16;
  static constexpr std::uint32_t kBuckets = 8192;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Sess {
    SessionId id = 0;     ///< occupant; 0 while the slot is free
    rt::Time period = 0;  ///< nominal, from the open's rate_hz
    rt::Time due = 0;
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
    std::uint32_t next = kNil;  ///< bucket list link
    QosClass qos = QosClass::kBronze;
    bool closed = false;
  };
  struct Due {
    rt::Time due = 0;
    SessionId id = 0;
    bool operator>(const Due& o) const {
      return due != o.due ? due > o.due : id > o.id;
    }
  };
  struct PendingOp {
    bool open = false;
    SessionId id = 0;
    SessionParams params;
  };

  [[nodiscard]] static std::int64_t tick_of(rt::Time t) {
    return t >> kTickShift;
  }
  void drain_pending(rt::Time now);
  /// Files a session's due on the wheel: into the heap when its tick is
  /// already current, into its tick's bucket otherwise.
  void schedule(std::uint32_t slot);
  /// The earliest live session due at or before `limit` (at the heap's
  /// front), or nullptr. Frees the slots of closed sessions it passes.
  [[nodiscard]] const Due* front(rt::Time limit);
  void push_span(std::size_t n);

  ShardState* st_;
  rt::Time idle_poll_;
  double min_mult_;

  // Driver-only.
  std::vector<Sess> sess_;             ///< by slot
  std::vector<std::uint32_t> bucket_;  ///< list heads, by tick % kBuckets
  std::int64_t tick_ = 0;              ///< ticks up to here are in heap_
  std::size_t in_buckets_ = 0;
  std::vector<Due> heap_;                ///< min-heap on (due, id)
  std::vector<std::uint32_t> freed_;     ///< slots to hand back to open()
  std::vector<PendingOp> ops_;           ///< the drained queue
  std::vector<Item> span_;
  std::vector<std::uint8_t> scratch_;

  std::mutex pending_mu_;
  std::vector<PendingOp> pending_;
  std::vector<std::uint8_t> generation_;  ///< last issued, by slot
  std::deque<std::uint32_t> free_;        ///< slots to reissue, oldest first
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
  void convert_span(ItemSpan /*xs*/) override {}

 private:
  ShardState* st_;
  double min_mult_;
  std::atomic<int> hints_{0};
};

/// Terminal sink: per-session stream digest plus inter-item jitter — the
/// absolute difference between the actual arrival gap and the scheduled
/// gap, |(now - prev_arrival) - (due - prev_due)| — recorded into the
/// shard's lock-free histogram. Records are indexed by the id's slot; when
/// a slot's next occupant delivers its first item, the previous occupant's
/// item count and digest move into a ring of the last kClosed such
/// sessions, where digest_of()/items_of() still find them. The records are
/// driver-thread-only (the sink shares the source's section); the table
/// routes external digest queries through the shard thread.
class SessionSink : public PassiveSink {
 public:
  SessionSink(std::string name, ShardState* st)
      : PassiveSink(std::move(name)), st_(st) {}

  void consume(Item x) override;
  /// Reads the clock once per span.
  void consume_span(ItemSpan xs) override;

  /// Per-session digest so far; 0 for an unknown session, and for one
  /// whose slot changed occupant more than kClosed slot changes ago.
  /// Driver-thread (or stopped-engine) access only.
  [[nodiscard]] std::uint64_t digest_of(SessionId id) const;
  [[nodiscard]] std::uint64_t items_of(SessionId id) const;

 private:
  static constexpr std::size_t kClosed = 1024;

  struct Rec {
    SessionId id = 0;
    StreamDigest digest;
    std::uint64_t seen = 0;
    rt::Time prev_due = 0;
    rt::Time prev_arrival = 0;
  };
  struct Closed {
    SessionId id = 0;
    std::uint64_t items = 0;
    std::uint64_t digest = 0;
  };

  void record(const Item& x, rt::Time now);
  /// The live record or the ring entry of `id`, as (items, digest).
  [[nodiscard]] Closed find(SessionId id) const;

  ShardState* st_;
  std::vector<Rec> recs_;      ///< by slot
  std::vector<Closed> ring_;   ///< kClosed entries once the first one lands
  std::size_t ring_next_ = 0;
};

}  // namespace infopipe::session
