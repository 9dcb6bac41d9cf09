// session_churn: 50,000 live sessions stamped out of one shared plan.
//
// A SessionTable on a launched ShardGroup(2) holds kSessions sessions at
// cadences spread over 2.5-7.5 Hz (about 250k items/s in all, 64-byte
// inline payloads), while this thread opens and closes kChurnPerS sessions
// a second beside the steady emission. The work is the session timing
// wheel and the rt timer that wakes it; the pool is bypassed (inline
// payloads). Bench stages from the plan's StageFactory measure each item
// from its due time on the shard's own clock and check it.
//
// The closed loop gives the same number of sessions a cadence no engine
// can keep up with, so the wheels emit back to back: delivered items/s is
// the session data plane's capacity.
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>

#include "session/engine.hpp"
#include "session/plan.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace infopipe;
using session::SessionId;

constexpr int kSessions = 50'000;
constexpr double kMinHz = 2.5;
constexpr double kMaxHz = 7.5;
constexpr int kChurnPerS = 2000;
constexpr std::size_t kPayloadBytes = 64;
constexpr double kSaturatingHz = 1e6;
constexpr double kWarmupS = 1.0;
/// Offered rate of the open loop: kSessions at a mean of 5 Hz.
constexpr double kOfferedRate = kSessions * (kMinHz + kMaxHz) / 2;

// Boundaries: 0 due | 1 first bench stage | 2 last bench stage.
const std::vector<std::string> kSpans = {"session.wheel", "core.stages"};

/// Per-shard tallies, written only by that shard's engine thread and read
/// after the group has stopped.
struct Tally {
  WindowedLatency lat;  ///< due -> last bench stage
  LogHistogram wheel;  ///< due -> first bench stage (traced)
  std::unordered_map<SessionId, std::uint64_t> next;  ///< expected seq
  std::uint64_t ok = 0;
  Ns offset = 0;  ///< bench clock minus the shard's clock
  bool have_offset = false;
  std::uint64_t row = ~std::uint64_t{0};  ///< trace row of the item in flight
  std::array<std::uint8_t, kPayloadBytes> want{};
};

/// Common base of the bench stages: the item's due time on the bench clock.
class Stage : public FunctionComponent {
 public:
  Stage(std::string name, Tally* t, Ns measure_from)
      : FunctionComponent(std::move(name)), t_(t), from_(measure_from) {}

 protected:
  [[nodiscard]] Ns due_of(const Item& x) {
    if (!t_->have_offset) {
      t_->offset = now_ns() - pipeline_now();
      t_->have_offset = true;
    }
    return x.timestamp + t_->offset;
  }
  Tally* t_;
  Ns from_;
};

/// First stage after the wheel (traced only): how late the wheel emitted.
class WheelProbe final : public Stage {
 public:
  WheelProbe(Tally* t, Ns from, TraceBook* book)
      : Stage("wheel-probe", t, from), book_(book) {}

 protected:
  Item convert(Item x) override {
    const Ns t = now_ns();
    const Ns due = due_of(x);
    if (due >= from_) t_->wheel.record(t - due);
    const auto id = static_cast<SessionId>(static_cast<std::uint32_t>(x.kind));
    if (TraceBook::sampled((id >> 8) + x.seq)) {
      t_->row = book_->claim_row(id, x.seq);
      book_->mark(t_->row, 0, due);
      book_->mark(t_->row, 1, t);
    }
    return x;
  }

 private:
  TraceBook* book_;
};

/// Last bench stage: checks every item (payload, per-session seq) and
/// records its latency from the due time.
class CheckStage final : public Stage {
 public:
  CheckStage(Tally* t, Ns from, TraceBook* book)
      : Stage("check", t, from), book_(book) {}

 protected:
  Item convert(Item x) override {
    const Ns t = now_ns();
    const auto id = static_cast<SessionId>(static_cast<std::uint32_t>(x.kind));
    session::fill_payload(t_->want.data(), kPayloadBytes, id, x.seq);
    std::uint64_t& next = t_->next[id];
    if (x.seq == next && x.bytes_size() == kPayloadBytes &&
        std::memcmp(x.bytes_data(), t_->want.data(), kPayloadBytes) == 0) {
      ++t_->ok;
    }
    next = x.seq + 1;
    const Ns due = due_of(x);
    if (due >= from_) t_->lat.record(due - from_, t - due);
    if (book_ != nullptr && t_->row != ~std::uint64_t{0}) {
      book_->mark(t_->row, 2, t);
      t_->row = ~std::uint64_t{0};
    }
    return x;
  }

 private:
  TraceBook* book_;
};

class SessionChurn final : public Workload {
 public:
  explicit SessionChurn(const Args& a) : seed_(a.seed) {}

  [[nodiscard]] std::vector<std::string> spans() const override {
    return kSpans;
  }
  [[nodiscard]] double offered_rate() const override { return kOfferedRate; }

  Phase closed(const ClosedSpec& s) override {
    Phase p;
    TraceBook none(kSpans, 0);
    // No latency samples: a saturated wheel's items are all late by design.
    Fleet f(s.traced ? &none : nullptr, std::numeric_limits<Ns>::max());
    std::uint64_t rng = seed_;
    const SetupClock setup;
    f.build(p);
    for (int i = 0; i < kSessions; ++i) f.open(rng, kSaturatingHz);
    setup.stop(p);
    const Ns t_start = now_ns();
    const Ns deadline = t_start + static_cast<Ns>(s.seconds * 1e9);
    wait_for(
        [&] {
          return s.items != 0 ? f.table->items_total() >= s.items
                              : now_ns() >= deadline;
        },
        s.seconds * 10 + 30);
    p.moved = f.table->items_total();
    p.busy_s = static_cast<double>(now_ns() - t_start) / 1e9;
    f.quiesce(p);
    f.finish(p);
    if (s.traced) {
      p.layer = runtime_counters({&f.group.runtime(0), &f.group.runtime(1)},
                                 p.moved);
    }
    return p;
  }

  Phase open(const OpenSpec& s) override {
    Phase p;
    std::uint64_t rng = seed_ ^ 0x0BE4ull;
    const SetupClock setup;
    const Ns t_measure =
        setup.at() + static_cast<Ns>(std::min(kWarmupS, s.seconds / 2) * 1e9);
    Fleet f(s.book, t_measure);
    f.build(p);
    // Engines idle. Sampled only when traced: the round trips would
    // count as set-up.
    const ShardSample before = s.book ? sample_shards(f.group) : ShardSample{};
    for (int i = 0; i < kSessions; ++i) f.open(rng, 0.0);
    setup.stop(p);

    // Churn: every millisecond close kChurnPerS/1000 random sessions and
    // open as many, paced on the bench clock.
    const Ns t0 = now_ns();
    const Ns t_end = std::max(setup.at() + static_cast<Ns>(s.seconds * 1e9),
                              t_measure + 1'000'000);
    CpuMeter cpu([&f] { return f.table->items_total(); }, t_measure);
    for (Ns tick = t0; tick < t_end; tick += 1'000'000) {
      while (now_ns() < tick) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (int i = 0; i < kChurnPerS / 1000; ++i) f.churn(rng);
    }
    cpu.stop();
    p.cpu_us_per_item = cpu.us_per_item();
    f.quiesce(p);
    if (s.book != nullptr) {
      p.layer = shard_rates(before, sample_shards(f.group));
      p.layer.insert(
          p.layer.end(),
          {{"session.open_us.p50", f.open_ns.quantile(0.50) / 1e3, ""},
           {"session.open_us.p99", f.open_ns.quantile(0.99) / 1e3, ""},
           {"session.close_us.p50", f.close_ns.quantile(0.50) / 1e3, ""},
           {"session.close_us.p99", f.close_ns.quantile(0.99) / 1e3, ""}});
    }
    f.finish(p);
    p.latency = f.tally[0].lat;
    p.latency.merge(f.tally[1].lat);
    return p;
  }

 private:
  /// One group + shared plan + table, with the bench's tallies and timers.
  struct Fleet {
    Fleet(TraceBook* book, Ns measure_from) : book(book), from(measure_from) {}
    ~Fleet() {
      if (table) table->stop();
      group.stop();
    }

    void build(Phase& p) {
      group.launch();
      session::EngineSpec spec;
      spec.stages = [this](int shard) {
        Tally* t = shard < 0 ? &proto : &tally[static_cast<std::size_t>(shard)];
        std::vector<std::unique_ptr<Component>> v;
        if (book != nullptr) {
          v.push_back(std::make_unique<WheelProbe>(t, from, book));
        }
        v.push_back(std::make_unique<CheckStage>(t, from, book));
        return v;
      };
      const Ns t = now_ns();
      plan = session::SharedPlan::analyze(std::move(spec));
      table = std::make_unique<session::SessionTable>(group, plan);
      p.realize_s = static_cast<double>(now_ns() - t) / 1e9;
      p.plan_threads = table->plan_info().threads;
    }

    /// Opens one session: seeded class, shard and cadence (`hz` > 0
    /// overrides the cadence).
    void open(std::uint64_t& rng, double hz) {
      session::SessionParams sp;
      sp.qos = static_cast<session::QosClass>(splitmix64(rng) % 3);
      sp.rate_hz = hz > 0.0 ? hz : kMinHz + (kMaxHz - kMinHz) * unit(rng);
      sp.payload_bytes = kPayloadBytes;
      const int shard = static_cast<int>(splitmix64(rng) & 1);
      const Ns t = now_ns();
      live.push_back(table->open_on(shard, sp));
      open_ns.record(now_ns() - t);
    }

    /// Closes a random live session and opens a fresh one in its place.
    void churn(std::uint64_t& rng) {
      const std::size_t k = splitmix64(rng) % live.size();
      const Ns t = now_ns();
      table->close(live[k]);
      close_ns.record(now_ns() - t);
      std::swap(live[k], live.back());
      live.pop_back();
      open(rng, 0.0);
    }

    /// Closes every session and waits until the wheels stop emitting. A
    /// shard whose wheel is always behind schedule never yields to its
    /// run_on service thread, so nothing here may call into a shard
    /// before this.
    void quiesce(Phase& p) {
      for (const SessionId id : live) table->close(id);
      live.clear();
      std::uint64_t last = ~std::uint64_t{0};
      const bool idle = wait_for(
          [&] {
            const std::uint64_t n = table->items_total();
            const bool still = n == last;
            last = n;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return still;
          },
          30.0);
      if (!idle) p.errors.emplace_back("session_churn: wheels never drained");
    }

    /// Stops emission, joins the shards, and reconciles: every emitted item
    /// must have reached the check stage intact.
    void finish(Phase& p) {
      table->stop();
      group.stop();
      p.attempted = table->items_total();
      p.ok = tally[0].ok + tally[1].ok;
    }

    TraceBook* book;
    Ns from;
    shard::ShardGroup group{2};
    std::array<Tally, 2> tally;  ///< outlives the stages that point at it
    Tally proto;                 ///< for the plan-analysis prototype's stages
    LogHistogram open_ns;
    LogHistogram close_ns;
    std::vector<SessionId> live;
    std::shared_ptr<const session::SharedPlan> plan;
    std::unique_ptr<session::SessionTable> table;
  };

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_session_churn(const Args& a) {
  return std::make_unique<SessionChurn>(a);
}

}  // namespace e2e
