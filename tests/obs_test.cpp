// Observability tests: the metrics registry (ip_obs), hop frames on the
// replay tap stream, the runtime's built-in metrics, structured
// introspection (PlanInfo / StatsSnapshot), and the mid-flow
// snapshot-safety guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/infopipes.hpp"
#include "obs/metrics.hpp"
#include "replay/recorder.hpp"
#include "replay/trace.hpp"

namespace infopipe {
namespace {

// ============================ registry ======================================

TEST(MetricsRegistry, CounterMonotonicity) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.events");
  EXPECT_EQ(c.value(), 0u);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    c.inc(static_cast<std::uint64_t>(i % 3 + 1));
    EXPECT_GT(c.value(), prev) << "counters only ever grow";
    prev = c.value();
  }
  // Re-requesting the same name returns the same counter, not a fresh one.
  EXPECT_EQ(&reg.counter("test.events"), &c);
  EXPECT_EQ(reg.counter("test.events").value(), prev);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x"), std::logic_error);
}

TEST(MetricsRegistry, HistogramBucketsAndStats) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  h.record(0);     // bucket 0 holds 0
  h.record(1);     // bucket 1: [1, 2)
  h.record(5);     // bucket 3: [4, 8)
  h.record(7);
  h.record(5000);  // bucket 13: [4096, 8192)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_EQ(h.sum(), 5013);
  EXPECT_DOUBLE_EQ(h.mean(), 5013.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(13), 1u);
  // Quantiles report the upper bound of the bucket holding the sample.
  EXPECT_EQ(h.quantile(0.5), 8u);
  EXPECT_EQ(h.quantile(1.0), 8192u);

  // The snapshot row carries the buckets up to the highest non-empty one
  // and the mean as its value.
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* row = snap.find("lat");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 5u);
  EXPECT_DOUBLE_EQ(row->value, h.mean());
  ASSERT_EQ(row->buckets.size(), 14u);
  EXPECT_EQ(row->buckets[3], 2u);
  EXPECT_EQ(row->buckets[13], 1u);
}

TEST(MetricsRegistry, HistogramMergeAddsSamples) {
  obs::Histogram a;
  obs::Histogram b;
  for (int i = 0; i < 99; ++i) a.record(100);   // bucket 7: [64, 128)
  b.record(1'000'000);                          // bucket 20
  obs::Histogram m;
  m.merge(a);
  m.merge(b);
  m.merge(obs::Histogram{});  // empty: changes nothing
  EXPECT_EQ(m.count(), 100u);
  EXPECT_EQ(m.sum(), 99 * 100 + 1'000'000);
  EXPECT_EQ(m.min(), 100);
  EXPECT_EQ(m.max(), 1'000'000);
  EXPECT_EQ(m.quantile(0.5), 128u);
  EXPECT_EQ(m.quantile(0.99), 128u);
  EXPECT_EQ(m.quantile(1.0), std::uint64_t{1} << 20);
  EXPECT_EQ(obs::Histogram{}.quantile(0.5), 0u);
}

TEST(MetricsRegistry, SnapshotSeesCollectorsAndIsTimestamped) {
  obs::MetricsRegistry reg;
  rt::Time fake_now = 42;
  reg.set_time_source([&] { return fake_now; });
  reg.counter("a").inc(7);
  std::uint64_t external = 13;
  const auto id = reg.add_collector([&](obs::MetricsSnapshot& s) {
    s.add_counter("ext.b", external);
  });
  obs::MetricsSnapshot s1 = reg.snapshot();
  EXPECT_EQ(s1.when, 42);
  ASSERT_NE(s1.find("a"), nullptr);
  EXPECT_EQ(s1.find("a")->count, 7u);
  ASSERT_NE(s1.find("ext.b"), nullptr);
  EXPECT_EQ(s1.find("ext.b")->count, 13u);

  reg.remove_collector(id);
  fake_now = 43;
  obs::MetricsSnapshot s2 = reg.snapshot();
  EXPECT_EQ(s2.when, 43);
  EXPECT_EQ(s2.find("ext.b"), nullptr) << "removed collector must not run";
}

// ===================== runtime + pipeline integration =======================

TEST(RuntimeMetrics, BuiltinCountersAppearInSnapshot) {
  rt::Runtime rtm;
  CountingSource src("src", 50);
  // One item per fire, so every item costs a driver cycle.
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 1});
  CountingSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();

  const obs::MetricsSnapshot s = rtm.metrics().snapshot();
  ASSERT_NE(s.find("rt.context_switches"), nullptr);
  EXPECT_GT(s.find("rt.context_switches")->count, 0u);
  ASSERT_NE(s.find("rt.dispatches"), nullptr);
  EXPECT_GT(s.find("rt.dispatches")->count, 0u);
  ASSERT_NE(s.find("core.driver_cycles"), nullptr);
  EXPECT_GE(s.find("core.driver_cycles")->count, 50u);
  // The realization's collector publishes per-driver rows.
  ASSERT_NE(s.find("pipe.driver.pump.items_pumped"), nullptr);
  EXPECT_EQ(s.find("pipe.driver.pump.items_pumped")->count, 50u);
}

TEST(RuntimeMetrics, SnapshotDeterministicUnderVirtualClock) {
  // Two identical runs under the virtual clock must produce identical
  // snapshots (same when, same counter values).
  auto run_once = []() {
    rt::Runtime rtm;
    CountingSource src("src", 40);
    ClockedPump pump("pump", 100.0);
    CountingSink sink("sink");
    auto ch = src >> pump >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    return rtm.metrics().snapshot().to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RuntimeMetrics, HandoffInstrumentationCountsCoroutineChannel) {
  rt::Runtime rtm;
  constexpr std::uint64_t kItems = 30;
  CountingSource src("src", kItems);
  // One item per fire: the per-item hand-off path.
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 1});
  LambdaActive noop("noop", [](const auto& pull, const auto& push) {
    for (;;) push(pull());
  });
  CountingSink sink("sink");
  auto ch = src >> pump >> noop >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  const obs::MetricsSnapshot s = rtm.metrics().snapshot();
  ASSERT_NE(s.find("core.handoffs"), nullptr);
  EXPECT_GE(s.find("core.handoffs")->count, kItems)
      << "one hand-off per item crossing the coroutine channel";
  ASSERT_NE(s.find("core.handoff_ns"), nullptr);
  EXPECT_EQ(s.find("core.handoff_ns")->count, s.find("core.handoffs")->count);
}

TEST(RuntimeMetrics, BurstHandOffCostsLessThanOneSwitchPerItem) {
  // The twin of the per-item hand-off above with the platform choosing the
  // burst: one hand-off carries a whole span to the coroutine, so the
  // switches per item fall below one.
  rt::Runtime rtm;
  constexpr std::uint64_t kItems = 3000;
  CountingSource src("src", kItems);
  FreeRunningPump pump("pump");
  LambdaActive noop("noop", [](const auto& pull, const auto& push) {
    for (;;) push(pull());
  });
  CountingSink sink("sink");
  auto ch = src >> pump >> noop >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), kItems);
  const obs::MetricsSnapshot s = rtm.metrics().snapshot();
  ASSERT_NE(s.find("rt.context_switches"), nullptr);
  EXPECT_LT(static_cast<double>(s.find("rt.context_switches")->count) /
                static_cast<double>(kItems),
            1.0);
  ASSERT_NE(s.find("core.handoffs"), nullptr);
  EXPECT_LT(s.find("core.handoffs")->count, kItems);
}

TEST(RuntimeMetrics, TracerRecordsPipelineHops) {
  // Hops ride the replay tap stream: recording a run is tracing it.
  replay::ScheduleRecorder rec;
  rec.install();
  {
    rt::Runtime rtm;
    CountingSource src("src", 10);
    FreeRunningPump fill("fill");
    Buffer buf("buf", 2, FullPolicy::kBlock, EmptyPolicy::kBlock);
    ClockedPump drain("drain", 1000.0);
    CountingSink sink("sink");
    auto ch = src >> fill >> buf >> drain >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    real.shutdown();
    rtm.run();
  }
  rec.uninstall();
  const replay::Trace t = rec.finish();

  bool saw_block = false, saw_control = false, saw_timer = false;
  for (const replay::Frame& f : t.frames) {
    if (f.frame_kind() == replay::FrameKind::kTimer) saw_timer = true;
    if (f.frame_kind() != replay::FrameKind::kHop) continue;
    ASSERT_LT(f.aux32, t.sites.size());
    const auto hop = static_cast<replay::Hop>(f.aux16);
    if (hop == replay::Hop::kBlock && t.sites[f.aux32] == "buf") {
      saw_block = true;
      EXPECT_GE(static_cast<std::int64_t>(f.b), 0) << "the wait, in ns";
    }
    if (hop == replay::Hop::kControl) saw_control = true;
  }
  EXPECT_TRUE(saw_block) << "fill must have blocked on the tiny buffer";
  EXPECT_TRUE(saw_control) << "START/SHUTDOWN dispatches are traced";
  EXPECT_TRUE(saw_timer) << "the clocked drain fires timers";
  EXPECT_NE(t.to_json_lines().find("\"site\": \"buf\""), std::string::npos);
}

// ===================== structured introspection =============================

TEST(Introspection, PlanInfoMatchesPlanAndRendersDescribe) {
  rt::Runtime rtm;
  CountingSource src("src", 5);
  FreeRunningPump pump("pump");
  LambdaActive act("act", [](const auto& pull, const auto& push) {
    for (;;) push(pull());
  });
  CountingSink sink("sink");
  auto ch = src >> pump >> act >> sink;
  Realization real(rtm, ch.pipeline());

  // Consume the struct directly: no string parsing.
  const PlanInfo info = real.plan_info();
  EXPECT_EQ(info.components, 4u);
  EXPECT_EQ(info.threads, 2u) << "pump thread + one coroutine";
  ASSERT_EQ(info.sections.size(), 1u);
  EXPECT_EQ(info.sections[0].driver, "pump");
  EXPECT_EQ(info.sections[0].thread_count, 2);
  const PlanInfo::Member* m = info.member("act");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->coroutine);
  EXPECT_EQ(m->mode, FlowMode::kPush);

  // describe() is exactly the rendering of plan_info().
  EXPECT_EQ(real.describe(), to_string(info));
  EXPECT_NE(to_string(info).find("section driven by 'pump'"),
            std::string::npos);
  EXPECT_NE(to_string(info).find("act: active in push mode, coroutine"),
            std::string::npos);

  // JSON form parses out the same facts (spot-check).
  const std::string j = to_json(info);
  EXPECT_NE(j.find("\"driver\":\"pump\""), std::string::npos);
  EXPECT_NE(j.find("\"coroutine\":true"), std::string::npos);
}

TEST(Introspection, StatsReportIsRenderedFromSnapshot) {
  rt::Runtime rtm;
  CountingSource src("src", 20);
  FreeRunningPump fill("fill");
  Buffer buf("mid-buf", 4, FullPolicy::kBlock, EmptyPolicy::kBlock);
  FreeRunningPump drain("drain");
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();

  const StatsSnapshot snap = real.stats_snapshot();
  // Regression: the text report must be exactly the snapshot, rendered.
  EXPECT_EQ(real.stats_report(), to_string(snap));

  const DriverStats* fd = snap.driver("fill");
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->items_pumped, 20u);
  const BufferStats* bs = snap.buffer("mid-buf");
  ASSERT_NE(bs, nullptr);
  EXPECT_EQ(bs->puts, 20u);
  EXPECT_EQ(bs->takes, 20u);
  EXPECT_EQ(bs->fill, 0u);
  EXPECT_EQ(bs->fill, bs->puts - bs->takes);

  // And the registry snapshot carries the same values via the collector.
  const obs::MetricsSnapshot ms = rtm.metrics().snapshot();
  ASSERT_NE(ms.find("pipe.buffer.mid-buf.puts"), nullptr);
  EXPECT_EQ(ms.find("pipe.buffer.mid-buf.puts")->count, bs->puts);
  ASSERT_NE(ms.find("pipe.driver.fill.items_pumped"), nullptr);
  EXPECT_EQ(ms.find("pipe.driver.fill.items_pumped")->count,
            fd->items_pumped);
}

TEST(Introspection, SnapshotSafeMidFlowFromEventListener) {
  // Take snapshots from a control-event listener while threads are blocked
  // mid-flow. Every snapshot must be internally consistent: for a kBlock
  // buffer, fill == puts - takes at every dispatch point (no torn reads).
  rt::Runtime rtm;
  CountingSource src("src", 500);
  FreeRunningPump fill("fill");
  Buffer buf("buf", 3, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 1000.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());

  int checked = 0;
  real.set_event_listener([&](const Event&) {
    const StatsSnapshot s = real.stats_snapshot();
    const BufferStats* b = s.buffer("buf");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->fill, b->puts - b->takes)
        << "snapshot taken mid-flow must not tear";
    EXPECT_LE(b->fill, b->capacity + 1)  // +1: transient stop-overflow slot
        << "fill within bounds";
    ++checked;
  });

  real.start();
  // Interleave control events with a running, frequently-blocking flow.
  for (int step = 1; step <= 20; ++step) {
    rtm.run_until(step * rt::milliseconds(17));
    real.post_event(Event{kEventUser + 1});
  }
  rtm.run();
  EXPECT_GE(checked, 20);

  // Mid-flow registry snapshots are pure reads too; take one after the run
  // and cross-check against the structured snapshot.
  const StatsSnapshot fin = real.stats_snapshot();
  EXPECT_EQ(fin.buffer("buf")->puts, 500u);
  EXPECT_EQ(fin.buffer("buf")->takes, 500u);
}

TEST(Introspection, SharedPipelineOverloadKeepsGraphAlive) {
  rt::Runtime rtm;
  CountingSource src("src", 15);
  FreeRunningPump pump("pump");
  CountingSink sink("sink");
  // The Chain temporary dies at the end of this full-expression; the
  // realization co-owns the Pipeline, so nothing dangles.
  Realization real(rtm, (src >> pump >> sink).share());
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 15u);
  EXPECT_EQ(real.plan_info().sections.size(), 1u);
}

TEST(Introspection, EventListenerStillObservesBroadcasts) {
  // The canonical member API (start/stop/post_event) feeds the listener;
  // control(START) is the same call.
  rt::Runtime rtm;
  CountingSource src("src", 5);
  FreeRunningPump pump("pump");
  CountingSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  std::vector<int> seen;
  real.set_event_listener([&](const Event& e) { seen.push_back(e.type); });
  real.start();
  rtm.run();
  real.shutdown();
  rtm.run();
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen.front(), kEventStart);
  EXPECT_EQ(seen.back(), kEventShutdown);
}

// ======================= JSON-lines rendering ===============================

TEST(TraceJsonLines, WritesOneObjectPerFrameNamingHopSites) {
  replay::Trace t;
  t.sites = {"alpha", "be\"ta"};
  replay::Frame f;
  f.kind = static_cast<std::uint8_t>(replay::FrameKind::kHop);
  f.aux16 = static_cast<std::uint16_t>(replay::Hop::kHandOff);
  f.aux32 = 0;
  f.a = 1;
  f.b = 2;
  t.frames.push_back(f);
  f.aux16 = static_cast<std::uint16_t>(replay::Hop::kDrop);
  f.aux32 = 1;
  f.a = static_cast<std::uint64_t>(std::int64_t{-3});
  t.frames.push_back(f);
  f = replay::Frame{};
  f.kind = static_cast<std::uint8_t>(replay::FrameKind::kTimer);
  t.frames.push_back(f);

  const std::string out = t.to_json_lines();
  std::vector<std::string> lines;
  for (std::size_t at = 0, nl; (nl = out.find('\n', at)) != std::string::npos;
       at = nl + 1) {
    lines.push_back(out.substr(at, nl - at));
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"hop\": \"hand-off\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"site\": \"alpha\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"hop\": \"drop\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"site\": \"be\\\"ta\""), std::string::npos)
      << "site names are escaped";
  EXPECT_NE(lines[1].find("\"a\": -3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\": \"timer\""), std::string::npos);
  EXPECT_EQ(lines[2].find("\"site\""), std::string::npos);
}

}  // namespace
}  // namespace infopipe
