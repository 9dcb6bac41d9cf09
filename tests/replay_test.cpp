// ip_replay tests: schedule record/replay, schedule fuzzing, and the
// vector-clock happens-before checker.
//
// The record→replay test is the tentpole made executable: a LIVE two-shard
// run (kernel threads, real clocks, one mid-flow migration) is recorded
// into a trace, then re-executed on the manual lockstep substrate under
// virtual clocks with the trace driving shard step order and migration
// timing — and the per-flow digests must be bit-identical. The fuzzer
// tests then invert the direction: instead of reproducing one schedule
// they perturb many, asserting the digests never move (and that a
// deliberately schedule-sensitive scenario shrinks to a minimal failing
// decision prefix).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "replay/digest.hpp"
#include "replay/fuzzer.hpp"
#include "replay/hb.hpp"
#include "replay/hooks.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::replay {
namespace {

using namespace std::chrono_literals;

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

// ---- trace format ----------------------------------------------------------

Trace sample_trace() {
  Trace t;
  t.meta.n_shards = 2;
  t.meta.flags = 0x5a;  // reserved byte: round-trips verbatim
  t.meta.seed = 42;
  t.meta.end_time_ns = rt::seconds(3);
  t.flows.push_back(Trace::Flow{"frames", 0xdeadbeefcafef00dull, 600});
  t.flows.push_back(Trace::Flow{"audio", 0x1234ull, 48000});
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kDispatch);
  f.shard = 0;
  f.aux32 = 400;
  f.t = 1000;
  f.a = 7;
  t.frames.push_back(f);
  f.kind = static_cast<std::uint8_t>(FrameKind::kChanPush);
  f.shard = 1;
  f.aux32 = 4;
  f.t = 2000;
  f.a = fnv1a("frames", 6);
  f.b = 17;
  t.frames.push_back(f);
  f.kind = static_cast<std::uint8_t>(FrameKind::kMigration);
  f.aux16 = static_cast<std::uint16_t>(MigrationPhase::kQuiesce);
  f.aux32 = 1;
  f.t = rt::seconds(1);
  f.a = 0;
  f.b = 1;
  t.frames.push_back(f);
  return t;
}

TEST(Trace, EncodeDecodeRoundTrip) {
  const Trace t = sample_trace();
  const std::vector<std::uint8_t> bytes = t.encode();
  const Trace d = Trace::decode(bytes.data(), bytes.size());

  EXPECT_EQ(d.meta.version, kTraceVersion);
  EXPECT_EQ(d.meta.n_shards, t.meta.n_shards);
  EXPECT_EQ(d.meta.flags, t.meta.flags);
  EXPECT_EQ(d.meta.seed, t.meta.seed);
  EXPECT_EQ(d.meta.end_time_ns, t.meta.end_time_ns);
  ASSERT_EQ(d.flows.size(), 2u);
  EXPECT_EQ(d.flows[0].name, "frames");
  EXPECT_EQ(d.flows[0].digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(d.flows[0].items, 600u);
  ASSERT_EQ(d.frames.size(), 3u);
  EXPECT_EQ(d.frames[1].frame_kind(), FrameKind::kChanPush);
  EXPECT_EQ(d.frames[1].a, fnv1a("frames", 6));
  EXPECT_EQ(d.frames[1].b, 17u);
  EXPECT_EQ(d.frames[2].aux16,
            static_cast<std::uint16_t>(MigrationPhase::kQuiesce));

  const std::vector<std::uint64_t> counts = d.kind_counts();
  EXPECT_EQ(counts[static_cast<int>(FrameKind::kDispatch)], 1u);
  EXPECT_EQ(counts[static_cast<int>(FrameKind::kChanPush)], 1u);
  EXPECT_EQ(counts[static_cast<int>(FrameKind::kMigration)], 1u);
}

TEST(Trace, RejectsBadMagicVersionAndTruncation) {
  const Trace t = sample_trace();
  std::vector<std::uint8_t> bytes = t.encode();

  std::vector<std::uint8_t> bad = bytes;
  bad[0] = 'X';
  EXPECT_THROW(Trace::decode(bad.data(), bad.size()), TraceError);

  bad = bytes;
  bad[4] = 0x7f;  // unknown version
  EXPECT_THROW(Trace::decode(bad.data(), bad.size()), TraceError);

  EXPECT_THROW(Trace::decode(bytes.data(), bytes.size() - 5), TraceError);
  EXPECT_THROW(Trace::decode(bytes.data(), 3), TraceError);
}

TEST(Trace, SaveLoadRoundTrip) {
  const Trace t = sample_trace();
  const std::string path = testing::TempDir() + "/ip_replay_trace_test.bin";
  t.save(path);
  const Trace d = Trace::load(path);
  EXPECT_EQ(d.frames.size(), t.frames.size());
  EXPECT_EQ(d.flows.size(), t.flows.size());
  EXPECT_NE(d.summary().find("2 shards"), std::string::npos);
  EXPECT_THROW(Trace::load(path + ".does-not-exist"), TraceError);
}

// ---- the shared pipeline for record/replay and fuzzing ---------------------

/// Two sections over two shards with DigestProbes on both sides of the cut;
/// the flow is finite and fully deterministic under virtual clocks.
struct ProbedPipeline {
  CountingSource src;
  ClockedPump p1;
  DigestProbe up{"up"};
  Buffer buf{"buf", 32};
  ClockedPump p2;
  DigestProbe down{"down"};
  CollectorSink sink{"sink"};
  Pipeline pipe;
  std::optional<shard::ShardedRealization> sr;

  ProbedPipeline(shard::ShardGroup& g, std::uint64_t items, double hz)
      : src("src", items), p1("p1", hz), p2("p2", hz) {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, up, 0);
    pipe.connect(up, 0, buf, 0);
    pipe.connect(buf, 0, p2, 0);
    pipe.connect(p2, 0, down, 0);
    pipe.connect(down, 0, sink, 0);
    sr.emplace(g, pipe);
  }

  [[nodiscard]] std::vector<Trace::Flow> flows() const {
    return {Trace::Flow{"up", up.digest(), up.items()},
            Trace::Flow{"down", down.digest(), down.items()}};
  }
};

// ---- record -> replay ------------------------------------------------------

TEST(RecordReplay, LiveRunWithMigrationReplaysBitIdentically) {
  ScheduleRecorder rec;
  Trace trace;
  {
    shard::ShardGroup group(2);
    ProbedPipeline pl(group, 600, 400.0);
    ASSERT_EQ(pl.sr->section_count(), 2u);
    rec.attach(group);
    rec.install();
    group.launch();
    pl.sr->start();
    // One mid-flow migration, away and recorded; ~1/3 into the stream.
    std::this_thread::sleep_for(500ms);
    const int home = pl.sr->shard_of_section(1);
    pl.sr->migrate_section(1, 1 - home);
    ASSERT_TRUE(pl.sr->wait_finished(30000ms));
    group.stop();
    rec.uninstall();
    for (const Trace::Flow& f : pl.flows()) {
      rec.note_flow(f.name, f.digest, f.items);
    }
    trace = rec.finish();
    EXPECT_EQ(pl.down.items(), 600u);
  }

  EXPECT_EQ(trace.meta.n_shards, 2);
  EXPECT_EQ(trace.meta.seed, config().seed);
  const std::vector<std::uint64_t> counts = trace.kind_counts();
  EXPECT_GT(counts[static_cast<int>(FrameKind::kDispatch)], 0u);
  EXPECT_GT(counts[static_cast<int>(FrameKind::kChanPush)], 0u);
  EXPECT_GT(counts[static_cast<int>(FrameKind::kChanPop)], 0u);
  // quiesce + transfer + resume of the one migration
  EXPECT_EQ(counts[static_cast<int>(FrameKind::kMigration)], 3u);
  ASSERT_EQ(trace.flows.size(), 2u);

  Replayer rp(trace);
  const ReplayResult result = rp.run([](shard::ShardGroup& g) {
    auto st = std::make_shared<ProbedPipeline>(g, 600, 400.0);
    st->sr->start();
    Replayer::Build b;
    b.state = st;
    b.real = &*st->sr;
    b.flows = [st] { return st->flows(); };
    return b;
  });
  EXPECT_TRUE(result.ok) << result.summary;
  EXPECT_EQ(result.migrations_applied, 1);
  EXPECT_GT(result.steps, 0u);
}

TEST(RecordReplay, RecorderPublishesReplayMetrics) {
  // The registry outlives the recorder: ~ScheduleRecorder removes the
  // collector publish() registered in it.
  obs::MetricsRegistry reg;
  ScheduleRecorder rec;
  rec.install();
  rec.note_mark(7);
  rec.note_mark(8);
  rec.uninstall();

  rec.publish(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* total = snap.find("replay.frames.total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 2u);
  const obs::MetricValue* marks = snap.find("replay.frames.mark");
  ASSERT_NE(marks, nullptr);
  EXPECT_EQ(marks->count, 2u);
  const obs::MetricValue* dropped = snap.find("replay.frames.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->count, 0u);
}

TEST(RecordReplay, UninstalledRecorderLeavesTapsDormant) {
  ScheduleRecorder rec;
  EXPECT_FALSE(rec.installed());
  EXPECT_EQ(tap_sink(), nullptr);
  // Taps are live code but observe nothing until install().
  int shared = 0;
  note_dispatch(nullptr, 1, 2);
  note_shared_access(&shared, true);
  EXPECT_EQ(rec.frames_recorded(), 0u);
}

// ---- schedule fuzzing ------------------------------------------------------

/// The fuzz scenario: the ProbedPipeline under manual lockstep, with the
/// plan perturbing (a) the per-round shard visit order, (b) the step-grid
/// boundaries (which batches timer deliveries differently), and (c) the
/// timing of a there-and-back mid-flow migration. Pure function of the
/// plan; the identity plan is the undisturbed lockstep run.
DigestMap fuzz_scenario(const SchedulePlan& plan) {
  shard::ShardGroup group(2, manual_opts());
  ProbedPipeline pl(group, 400, 200.0);
  const int home = pl.sr->shard_of_section(1);
  const int away = 1 - home;
  pl.sr->start();

  const rt::Time mig1 = rt::seconds(1) + plan.jitter(1001, rt::milliseconds(90));
  const rt::Time mig2 = rt::seconds(2) + plan.jitter(1002, rt::milliseconds(90));
  bool moved = false;
  bool returned = false;
  std::size_t round = 0;
  for (rt::Time t = rt::milliseconds(50); t <= rt::seconds(4);
       t += rt::milliseconds(50)) {
    // Delay timer delivery: the grid point shifts forward by up to 20 ms
    // (always < the 50 ms stride, so time stays monotonic).
    const rt::Time target =
        t + (plan.decision(2000 + round) % rt::milliseconds(20));
    group.step_until(target, plan.order(round, group.size()));
    ++round;
    if (!moved && target >= mig1) {
      pl.sr->migrate_section(1, away);
      moved = true;
    }
    if (!returned && target >= mig2) {
      pl.sr->migrate_section(1, home);
      returned = true;
    }
  }
  EXPECT_TRUE(pl.sr->finished());

  DigestMap d;
  d["up"] = pl.up.digest();
  d["up.items"] = pl.up.items();
  d["down"] = pl.down.digest();
  d["down.items"] = pl.down.items();
  return d;
}

int fuzz_seed_count() {
  if (const char* e = std::getenv("INFOPIPE_FUZZ_SEEDS")) {
    const int n = std::atoi(e);
    if (n > 0) return n;
  }
  return 25;
}

TEST(ScheduleFuzzer, PerturbedSchedulesStayLockstepEquivalent) {
  const int n = fuzz_seed_count();
  const ScheduleFuzzer fuzzer(fuzz_scenario);
  const FuzzReport rep = fuzzer.run(config().seed, n);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.schedules, static_cast<std::uint64_t>(n));
  EXPECT_EQ(rep.baseline.at("down.items"), 400u);
}

TEST(ScheduleFuzzer, ShrinksAFailingSeedToItsMinimalDecisionPrefix) {
  // Synthetic schedule-SENSITIVE scenario: diverges iff decision word 5 is
  // live and lands in a residue class (~1/3 of seeds). The minimal failing
  // prefix is therefore exactly 6 — decisions 0..4 are irrelevant.
  const Scenario sensitive = [](const SchedulePlan& p) {
    DigestMap d;
    d["flow"] = 42;
    const std::uint64_t dec = p.decision(5);
    if (dec != 0 && dec % 3 == 0) d["flow"] = 43;
    return d;
  };
  const ScheduleFuzzer fuzzer(sensitive);
  const FuzzReport rep = fuzzer.run(config().seed + 7, 64, 16);
  ASSERT_FALSE(rep.ok()) << "expected ~1/3 of 64 seeds to diverge";
  EXPECT_EQ(rep.shrunk_prefix, 6u) << rep.summary();
  // And the shrunk plan indeed still fails while one decision fewer passes.
  SchedulePlan shrunk{rep.shrunk_seed, rep.shrunk_prefix};
  EXPECT_NE(sensitive(shrunk), rep.baseline);
  SchedulePlan shorter{rep.shrunk_seed, rep.shrunk_prefix - 1};
  EXPECT_EQ(sensitive(shorter), rep.baseline);
}

TEST(SchedulePlan, DecisionsAreDeterministicAndOrdersArePermutations) {
  const SchedulePlan a{12345, SchedulePlan::kNoPrefix};
  const SchedulePlan b{12345, SchedulePlan::kNoPrefix};
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(a.decision(i), b.decision(i));
  }
  EXPECT_EQ(SchedulePlan{}.decision(3), 0u);  // identity plan
  for (std::size_t round = 0; round < 16; ++round) {
    const std::vector<int> o = a.order(round, 4);
    ASSERT_EQ(o.size(), 4u);
    std::vector<bool> seen(4, false);
    for (const int s : o) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
      EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
      seen[static_cast<std::size_t>(s)] = true;
    }
  }
  for (std::size_t i = 0; i < 64; ++i) {
    const rt::Time j = a.jitter(i, rt::milliseconds(10));
    EXPECT_GE(j, -rt::milliseconds(10));
    EXPECT_LE(j, rt::milliseconds(10));
  }
}

// ---- happens-before checking -----------------------------------------------

TEST(HappensBefore, ChannelEdgeOrdersCrossThreadAccess) {
  HBChecker hb;
  const void* chan = &hb;  // any stable key
  int obj = 0;
  std::atomic<bool> a_done{false};

  std::thread ta([&] {
    hb.on_shared_access(&obj, true);
    hb.on_chan_push(chan, 1, 0, 1, 0);
    a_done.store(true);
  });
  std::thread tb([&] {
    while (!a_done.load()) std::this_thread::yield();
    hb.on_chan_pop(chan, 1, 0, 1, 1);
    hb.on_shared_access(&obj, true);
  });
  ta.join();
  tb.join();

  EXPECT_TRUE(hb.violations().empty()) << hb.report();
  EXPECT_GE(hb.edges_observed(), 2u);
  EXPECT_EQ(hb.accesses_checked(), 2u);
}

TEST(HappensBefore, StashEdgeOrdersForeignReturnAgainstDrain) {
  HBChecker hb;
  const void* pool = &hb;
  int obj = 0;
  std::atomic<bool> a_done{false};

  std::thread ta([&] {
    hb.on_shared_access(&obj, true);
    hb.on_stash(pool, StashEdge::kReturn, 1);
    a_done.store(true);
  });
  std::thread tb([&] {
    while (!a_done.load()) std::this_thread::yield();
    hb.on_stash(pool, StashEdge::kDrain, 1);
    hb.on_shared_access(&obj, true);
  });
  ta.join();
  tb.join();

  EXPECT_TRUE(hb.violations().empty()) << hb.report();
}

TEST(HappensBefore, UnorderedCrossThreadWriteIsFlagged) {
  HBChecker hb;
  int obj = 0;
  std::atomic<bool> a_done{false};

  std::thread ta([&] {
    hb.on_shared_access(&obj, true);
    a_done.store(true);
  });
  std::thread tb([&] {
    // Real-time ordering exists (we wait for A), but NO recorded edge
    // carries it — exactly the bug class the checker exists to flag.
    while (!a_done.load()) std::this_thread::yield();
    hb.on_shared_access(&obj, true);
  });
  ta.join();
  tb.join();

  const std::vector<HBChecker::Violation> v = hb.violations();
  ASSERT_EQ(v.size(), 1u) << hb.report();
  EXPECT_EQ(v[0].obj, &obj);
  EXPECT_TRUE(v[0].write_a && v[0].write_b);
  EXPECT_NE(v[0].thread_a, v[0].thread_b);
}

TEST(HappensBefore, ReadsNeverRaceAndPartialPopsStayPending) {
  HBChecker hb;
  const void* chan = &hb;
  int obj = 0;
  std::atomic<int> stage{0};

  std::thread ta([&] {
    hb.on_shared_access(&obj, false);  // read
    hb.on_chan_push(chan, 1, 0, 4, 0);  // positions [0,4)
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
    hb.on_shared_access(&obj, true);  // unordered write vs B's write
  });
  std::thread tb([&] {
    while (stage.load() != 1) std::this_thread::yield();
    hb.on_shared_access(&obj, false);  // read vs read: never a race
    hb.on_chan_pop(chan, 1, 0, 2, 1);  // only [0,2): edge NOT complete
    hb.on_shared_access(&obj, true);   // write unordered vs A's push
    stage.store(2);
  });
  ta.join();
  tb.join();

  // B's write is not ordered after A's read (the partial pop joined no
  // edge), and A's final write is not ordered after B's — both flagged.
  EXPECT_FALSE(hb.violations().empty()) << hb.report();
}

TEST(HappensBefore, LiveCutBufferTrafficIsRaceFreeByConstruction) {
  HBChecker hb;
  hb.install();
  {
    shard::ShardGroup group(2);
    group.launch();
    Buffer ch("hb.live", 8);
    ch.bind_producer(group.runtime(0), 0);
    ch.bind_consumer(group.runtime(1), 1);
    int obj = 0;
    group.run_on(0, [&] {
      note_shared_access(&obj, true);
      Item x = Item::token(1);
      ASSERT_TRUE(ch.try_put(x));
    });
    group.run_on(1, [&] {
      ASSERT_TRUE(ch.try_take().has_value());
      note_shared_access(&obj, true);
    });
    group.stop();
  }
  hb.uninstall();
  EXPECT_TRUE(hb.violations().empty()) << hb.report();
}

TEST(HappensBefore, SeededUnorderedCrossShardAccessIsFlaggedLive) {
  HBChecker hb;
  hb.install();
  {
    shard::ShardGroup group(2);
    group.launch();
    int shared_counter = 0;
    // The deliberate bug: both shards touch shared_counter with no channel
    // or stash edge between them. run_on's own wakeup messages are not
    // recorded HB edges — the middleware's data-plane discipline (all
    // cross-shard state rides channels/pools) is exactly what is violated.
    group.run_on(0, [&] { note_shared_access(&shared_counter, true); });
    group.run_on(1, [&] { note_shared_access(&shared_counter, true); });
    group.stop();
  }
  hb.uninstall();
  const std::vector<HBChecker::Violation> v = hb.violations();
  ASSERT_FALSE(v.empty()) << hb.report();
  EXPECT_TRUE(v[0].write_a && v[0].write_b);
}

}  // namespace
}  // namespace infopipe::replay
