// Location-transparent feedback endpoints across shard cuts.
//
// The acceptance scenario for the endpoint layer: a FeedbackLoop homed on
// the CONSUMER shard reads the cross-shard channel's congestion and steers
// an AdaptivePump on the PRODUCER shard, bound purely by name — the loop
// code never touches a component reference or a foreign runtime. The main
// test runs the whole two-shard group in manual/lockstep mode under virtual
// clocks, so convergence is deterministic and replayable; a second test
// closes the same loop over real kernel threads with loose tolerances.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/infopipes.hpp"
#include "feedback/endpoint.hpp"
#include "feedback/toolkit.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::fb {
namespace {

using namespace std::chrono_literals;

/// AdaptivePump that counts the quality hints it receives, so a test can
/// prove actuations really arrived as control events on the pump's shard.
class CountingAdaptivePump : public AdaptivePump {
 public:
  using AdaptivePump::AdaptivePump;

  void handle_event(const Event& e) override {
    if (e.type == kEventQualityHint) ++hints_;
    AdaptivePump::handle_event(e);
  }

  [[nodiscard]] int hints() const noexcept { return hints_; }

 private:
  int hints_ = 0;
};

/// What one deterministic run of the congestion-steering scenario produced.
struct RunResult {
  double pump_rate = 0.0;
  double fill_frac = 0.0;
  double loop_error = 0.0;
  std::uint64_t delivered = 0;
  int hints = 0;
  int steps = 0;
};

/// Two manual shards under virtual clocks: src >> fill(300 Hz, adaptive) >>
/// [cut "buf", capacity 64] >> drain(100 Hz, fixed) >> sink. The loop lives
/// on the channel's consumer shard, holds the channel at half full, and
/// actuates the producer-side pump through its name. Lockstep is driven in
/// 100 ms slices so the shards interleave at feedback-relevant granularity.
RunResult run_congestion_scenario() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  CountingSource src("src", 1000000);
  CountingAdaptivePump fill("fill", 300.0);  // starts 3x too fast
  Buffer buf("buf", 64, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 100.0);  // the plant's fixed service rate
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  Buffer* chan = sr.find_channel("buf");
  EXPECT_NE(chan, nullptr);
  EXPECT_NE(chan->from_shard(), chan->to_shard());
  // The pump lives on the producer shard; the loop will home on the other.
  EXPECT_EQ(sr.find_component("fill").shard, chan->from_shard());

  // Positive gains: error = setpoint - fill, and RAISING the producer rate
  // raises the fill level.
  auto loop = make_loop(
      sr, LoopSpec{.name = "congestion",
                   .period = rt::milliseconds(50),
                   .sensor = fill_fraction("buf"),
                   .setpoint = 0.5,
                   .controller = PIController(/*kp=*/200.0, /*ki=*/400.0,
                                              /*out_min=*/1.0,
                                              /*out_max=*/2000.0),
                   .actuator = pump_rate("fill")});

  auto prod_stalls =
      resolve_reading(sr, producer_stall_rate("buf"), chan->to_shard());
  (void)prod_stalls();  // primes the rate window at t = 0

  // Phase 1, loop disengaged: 300 Hz into a 100 Hz drain fills the 64-slot
  // ring within a second, so the channel saturates and the producer blocks.
  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_GT(chan->fill(), chan->capacity() * 3 / 4);
  EXPECT_GT(prod_stalls(), 0.0);

  // Phase 2: the loop engages and steers the congested channel back to its
  // setpoint by throttling the far-shard producer.
  loop->start();
  for (rt::Time t = rt::seconds(2); t <= rt::seconds(40);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }

  RunResult r;
  r.pump_rate = fill.rate_hz();
  r.fill_frac = static_cast<double>(chan->fill()) /
                static_cast<double>(chan->capacity());
  r.loop_error = loop->last_error();
  r.hints = fill.hints();
  r.steps = loop->steps();

  // The loop's telemetry appears under its home (consumer) shard.
  const std::string p =
      "shard" + std::to_string(chan->to_shard()) + ".fb.loop.congestion.";
  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  const obs::MetricValue* out = ms.find(p + "output");
  EXPECT_NE(out, nullptr);
  if (out != nullptr) {
    EXPECT_NEAR(out->value, fill.rate_hz(), 1e-9);
  }
  const obs::MetricValue* acts = ms.find(p + "actuations");
  EXPECT_NE(acts, nullptr);
  if (acts != nullptr) {
    EXPECT_EQ(acts->count, static_cast<std::uint64_t>(r.steps));
  }
  EXPECT_NE(ms.find(p + "error"), nullptr);
  EXPECT_NE(ms.find(p + "steps"), nullptr);
  // Nothing leaked onto the producer shard's registry.
  const std::string foreign =
      "shard" + std::to_string(chan->from_shard()) + ".fb.loop.congestion.";
  EXPECT_EQ(ms.find(foreign + "output"), nullptr);

  loop->stop();
  sr.shutdown();
  group.step_until(rt::seconds(41));
  EXPECT_TRUE(sr.finished());
  r.delivered = sink.count();
  return r;
}

TEST(FeedbackEndpoint, CrossShardLoopConvergesToChannelSetpoint) {
  const RunResult r = run_congestion_scenario();
  // Converged: the producer ends matched to the 100 Hz drain, the channel
  // sits near half full, and the loop error is near zero.
  EXPECT_NEAR(r.pump_rate, 100.0, 15.0);
  EXPECT_NEAR(r.fill_frac, 0.5, 0.2);
  EXPECT_NEAR(r.loop_error, 0.0, 0.2);
  // ~40 s at a 50 ms period: the loop actually ran, and every one of its
  // actuations crossed the cut as a control event into the producer pump.
  EXPECT_GT(r.steps, 500);
  EXPECT_EQ(r.hints, r.steps);
  EXPECT_GT(r.delivered, 3000u);
}

TEST(FeedbackEndpoint, LockstepRunsAreBitIdentical) {
  // Same virtual-clock scenario twice in one process: manual mode plus the
  // endpoint layer must make the whole cross-shard loop a deterministic
  // function of the schedule, down to per-sample controller state.
  const RunResult a = run_congestion_scenario();
  const RunResult b = run_congestion_scenario();
  EXPECT_EQ(a.pump_rate, b.pump_rate);
  EXPECT_EQ(a.fill_frac, b.fill_frac);
  EXPECT_EQ(a.loop_error, b.loop_error);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hints, b.hints);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(FeedbackEndpoint, CrossShardResolutionErrors) {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  CountingSource src("src", 100);
  AdaptivePump fill("fill", 100.0);
  Buffer buf("buf", 16);
  FreeRunningPump drain("drain");
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());

  EXPECT_THROW((void)resolve_reading(sr, fill_fraction("nope"), 0),
               CompositionError);
  EXPECT_THROW((void)resolve_actuate(sr, pump_rate("nope")), CompositionError);
  EXPECT_THROW((void)resolve_actuate(sr, pump_rate("drain")),
               CompositionError);  // not adaptive
  // The cut buffer is a channel now: depth and stall kinds resolve, a probe
  // does not (a channel has no sensor value of its own).
  EXPECT_NO_THROW((void)resolve_reading(sr, fill_fraction("buf"), 0));
  EXPECT_NO_THROW((void)resolve_reading(sr, consumer_stall_rate("buf"), 0));
  EXPECT_THROW((void)resolve_reading(sr, probe_value("buf"), 0),
               CompositionError);
  // A component endpoint resolves from anywhere, local or not.
  EXPECT_NO_THROW((void)resolve_reading(sr, probe_value("fill"), 0));
  EXPECT_NO_THROW((void)resolve_reading(sr, probe_value("fill"), 1));
}

TEST(FeedbackEndpoint, ForeignProbeIsCachedAndPushedAsSensorReports) {
  // A probe of a component on ANOTHER shard must not round-trip per sample:
  // resolution plants a PeriodicTask on the owner shard that caches the
  // value and broadcasts it as kEventSensorReport; the Reading is then just
  // a cache load.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  CountingSource src("src", 1000000);
  AdaptivePump fill("fill", 200.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());
  Buffer* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  const int consumer = chan->to_shard();  // foreign to the pump

  std::atomic<int> reports{0};
  sr.set_event_listener([&reports](const Event& e) {
    if (e.type != kEventSensorReport) return;
    const auto* r = e.get<SensorReport>();
    if (r != nullptr && r->sensor == "fill") reports.fetch_add(1);
  });

  auto reading =
      resolve_reading(sr, probe_value("fill"), consumer, rt::milliseconds(50));
  EXPECT_EQ(reading(), 0.0);  // nothing cached before the flow steps

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  // ~2s at a 50ms probe period: the shard-side sampler pushed many reports,
  // and the cache holds the pump's actual rate.
  EXPECT_GT(reports.load(), 10);
  EXPECT_EQ(reading(), fill.rate_hz());

  sr.shutdown();
  group.step_until(rt::seconds(3));
  EXPECT_TRUE(sr.finished());
}

TEST(FeedbackEndpoint, ChannelSensorFollowsCutCollapseAndResplit) {
  // A buffer sensor must keep reading the live queue while migrations
  // collapse and re-create the cut: the buffer is one object throughout,
  // so the sensor binds to it once and its counters never restart.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  CountingSource src("src", 1000000);
  ClockedPump fill("fill", 300.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  Buffer* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  const int prod = chan->from_shard();
  const int cons = chan->to_shard();
  std::size_t cons_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "drain") cons_sec = i;
  }
  ASSERT_LT(cons_sec, sr.section_count());

  auto fill_read = resolve_reading(sr, fill_fraction("buf"), cons);
  auto stall_read = resolve_reading(sr, producer_stall_rate("buf"), cons);
  (void)stall_read();  // primes the rate window at t = 0

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  // 300 Hz into a 100 Hz drain congests the cut; the sensor sees it.
  EXPECT_GT(fill_read(), 0.5);
  EXPECT_GT(stall_read(), 0.0);

  // Collapse: the consumer section joins the producer shard and the buffer
  // is no longer cut; its queued items never moved, and the sensor still
  // reads them.
  (void)sr.migrate_section(cons_sec, prod);
  ASSERT_EQ(sr.find_channel("buf"), nullptr);
  EXPECT_GT(fill_read(), 0.3);
  // The rate window keeps differencing the same monotonic counter: no
  // nonsense spike across the collapse.
  double r = stall_read();
  EXPECT_GE(r, 0.0);
  EXPECT_LT(r, 1e9);
  for (rt::Time t = rt::seconds(2); t <= rt::seconds(3);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_GT(fill_read(), 0.3);

  // Re-split: the same buffer object carries the cut again.
  (void)sr.migrate_section(cons_sec, cons);
  Buffer* fresh = sr.find_channel("buf");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh, chan);
  EXPECT_GT(fill_read(), 0.3);
  for (rt::Time t = rt::seconds(3); t <= rt::seconds(4);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_GT(fill_read(), 0.5);
  r = stall_read();
  EXPECT_GE(r, 0.0);
  EXPECT_LT(r, 1e9);

  sr.shutdown();
  group.step_until(rt::seconds(5));
  EXPECT_TRUE(sr.finished());
}

TEST(FeedbackEndpoint, RemoteProbeRehomesAfterMigration) {
  // The shard-side probe task must follow its component: after a migration
  // moves the probed pump, the old shard's task goes dormant and the next
  // Reading re-homes it, so the cache keeps refreshing without per-period
  // cross-shard round trips.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  CountingSource src("src", 1000000);
  AdaptivePump fill("fill", 200.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  Buffer* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  const int consumer = chan->to_shard();
  std::size_t pump_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "fill") pump_sec = i;  // sections go by driver
  }
  ASSERT_LT(pump_sec, sr.section_count());
  ASSERT_TRUE(sr.section_migratable(pump_sec));

  std::atomic<int> reports{0};
  sr.set_event_listener([&reports](const Event& e) {
    if (e.type != kEventSensorReport) return;
    const auto* rep = e.get<SensorReport>();
    if (rep != nullptr && rep->sensor == "fill") reports.fetch_add(1);
  });

  auto reading =
      resolve_reading(sr, probe_value("fill"), consumer, rt::milliseconds(50));

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_EQ(reading(), fill.rate_hz());
  const int before = reports.load();
  EXPECT_GT(before, 5);

  // Move the pump's section onto the consumer shard (the cut collapses).
  (void)sr.migrate_section(pump_sec, consumer);
  // One tick on the old owner notices the move and flags it; the next
  // read re-homes the task; subsequent ticks refresh the cache again.
  for (rt::Time t = rt::seconds(1); t <= rt::seconds(3);
       t += rt::milliseconds(100)) {
    group.step_until(t);
    (void)reading();
  }
  EXPECT_EQ(reading(), fill.rate_hz());
  EXPECT_GT(reports.load(), before + 5);

  sr.shutdown();
  group.step_until(rt::seconds(4));
  EXPECT_TRUE(sr.finished());
}

TEST(FeedbackEndpoint, LoopRehomesWhenConsumerSectionMigrates) {
  // A naturally-homed loop lives where congestion is observed: the sensor
  // channel's consumer shard. When the rebalancer migrates the consumer
  // section, the channel's to_shard moves — and the loop must move with it:
  // its periodic task retires on the old shard, a fresh one spawns on the
  // new consumer shard, the metric rows continue under the new prefix, and
  // steering never stops.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(3, std::move(opt));

  CountingSource src("src", 1000000);
  CountingAdaptivePump fill("fill", 300.0);
  Buffer buf("buf", 64, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  Buffer* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  const int old_home = chan->to_shard();
  std::size_t cons_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "drain") cons_sec = i;
  }
  ASSERT_LT(cons_sec, sr.section_count());
  ASSERT_TRUE(sr.section_migratable(cons_sec));
  int fresh = -1;  // a shard hosting neither side of the cut
  for (int s = 0; s < group.size(); ++s) {
    if (s != chan->from_shard() && s != old_home) fresh = s;
  }
  ASSERT_GE(fresh, 0);

  auto loop = make_loop(
      sr, LoopSpec{.name = "congestion",
                   .period = rt::milliseconds(50),
                   .sensor = fill_fraction("buf"),
                   .setpoint = 0.5,
                   .controller = PIController(200.0, 400.0, 1.0, 2000.0),
                   .actuator = pump_rate("fill")});

  sr.start();
  loop->start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_EQ(loop->rehomes(), 0);
  const int steps_before = loop->steps();
  EXPECT_GT(steps_before, 10);

  // Migrate the consumer section: the cut persists, rebound to `fresh`.
  (void)sr.migrate_section(cons_sec, fresh);
  Buffer* live = sr.find_channel("buf");
  ASSERT_NE(live, nullptr);
  ASSERT_EQ(live->to_shard(), fresh);

  for (rt::Time t = rt::seconds(2); t <= rt::seconds(6);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  // The loop noticed the epoch change, moved exactly once, and kept
  // stepping from its new home.
  EXPECT_EQ(loop->rehomes(), 1);
  EXPECT_GT(loop->steps(), steps_before + 10);
  EXPECT_EQ(fill.hints(), loop->steps());

  // Telemetry continues under the NEW home shard's registry.
  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  const obs::MetricValue* steps_row = ms.find(
      "shard" + std::to_string(fresh) + ".fb.loop.congestion.steps");
  ASSERT_NE(steps_row, nullptr);
  EXPECT_GT(steps_row->count, 10u);

  loop->stop();
  sr.shutdown();
  group.step_until(rt::seconds(7));
  EXPECT_TRUE(sr.finished());
}

TEST(FeedbackEndpoint, LaunchedGroupStillConvergesLoosely) {
  // The same loop over real kernel threads: no lockstep, real clocks, TSan
  // exercises the cross-shard sampling (channel atomics) and actuation
  // (post_event_to_external) paths. Tolerances are deliberately loose.
  shard::ShardGroup group(2);

  CountingSource src("src", 1000000);
  CountingAdaptivePump fill("fill", 300.0);
  Buffer buf("buf", 64, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  auto loop = make_loop(
      sr, LoopSpec{.name = "congestion",
                   .period = rt::milliseconds(20),
                   .sensor = fill_fraction("buf"),
                   .setpoint = 0.5,
                   .controller = PIController(200.0, 400.0, 1.0, 2000.0),
                   .actuator = pump_rate("fill")});
  sr.start();
  loop->start();
  std::this_thread::sleep_for(2s);
  loop->stop();
  const int steps = loop->steps();
  EXPECT_GT(steps, 10);  // the loop ran on its shard
  sr.shutdown();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();  // joins host threads: direct reads below are race-free
  // The producer was throttled from 300 Hz toward the 100 Hz drain, every
  // actuation arrived at the far-shard pump, and the loop published itself.
  EXPECT_LT(fill.rate_hz(), 250.0);
  // A final actuation can still be in flight when the shutdown lands, so the
  // delivered count may trail the step count by the pipeline depth.
  EXPECT_GT(fill.hints(), 0);
  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  Buffer* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  EXPECT_NE(ms.find("shard" + std::to_string(chan->to_shard()) +
                    ".fb.loop.congestion.output"),
            nullptr);
}

}  // namespace
}  // namespace infopipe::fb
