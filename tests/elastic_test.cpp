// Elastic shard topology tests (ARCHITECTURE §19): runtime grow/shrink of a
// ShardGroup, thread transparency across topology changes, and record→replay
// of elastic runs.
//
// The heart of the suite extends the lockstep discipline to the topology
// itself: the same finite flow is run undisturbed and with a mid-flow
// add_shard → migrate → retire_shard sequence, and the sink must collect the
// exact same item sequence bit for bit — a section's placement is invisible
// to the flow even while the set of placements changes. The record→replay
// test then does the elastic run LIVE (kernel threads, real clocks), records
// the scale events as trace frames, and re-executes on the manual substrate:
// per-flow digests must match.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/infopipes.hpp"
#include "replay/digest.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

using namespace std::chrono_literals;

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

// ---- the group itself ------------------------------------------------------

TEST(ElasticGroup, AddShardGrowsTheLiveSet) {
  shard::ShardGroup group(2, manual_opts());
  EXPECT_EQ(group.size(), 2);
  EXPECT_EQ(group.live_count(), 2);

  const int added = group.add_shard();
  EXPECT_EQ(added, 2);  // ids are dense: the new shard is old size()
  EXPECT_EQ(group.size(), 3);
  EXPECT_EQ(group.live_count(), 3);
  EXPECT_TRUE(group.is_live(added));
  EXPECT_EQ(group.live_shards(), (std::vector<int>{0, 1, 2}));

  // The new shard is a full citizen of the manual stepping substrate.
  group.step_until(rt::milliseconds(10));
  EXPECT_EQ(group.runtime(added).now(), rt::milliseconds(10));
}

TEST(ElasticGroup, RetireKeepsTheSlotAndNeverReusesTheId) {
  shard::ShardGroup group(2, manual_opts());
  group.retire_shard(1);
  EXPECT_FALSE(group.is_live(1));
  EXPECT_EQ(group.size(), 2);  // the slot is retained, not erased
  EXPECT_EQ(group.live_count(), 1);
  EXPECT_EQ(group.live_shards(), (std::vector<int>{0}));

  EXPECT_THROW(group.retire_shard(1), rt::RuntimeError);  // already retired
  EXPECT_THROW(group.retire_shard(0), rt::RuntimeError);  // last live shard
  EXPECT_THROW(group.retire_shard(7), std::out_of_range);  // unknown

  // Growth after retirement hands out a FRESH id — indices that escaped
  // into plans and traces stay unambiguous forever.
  const int added = group.add_shard();
  EXPECT_EQ(added, 2);
  EXPECT_FALSE(group.is_live(1));
  EXPECT_EQ(group.live_shards(), (std::vector<int>{0, 2}));
}

TEST(ElasticGroup, AddAndRetireUnderRealKernelThreads) {
  shard::ShardGroup group(2);
  group.launch();

  const int added = group.add_shard();
  ASSERT_EQ(added, 2);
  // The new shard got its own pinned host thread immediately.
  const auto tid0 = group.call_on(0, [] { return std::this_thread::get_id(); });
  const auto tid2 =
      group.call_on(added, [] { return std::this_thread::get_id(); });
  EXPECT_NE(tid0, tid2);
  EXPECT_NE(tid2, std::this_thread::get_id());

  group.retire_shard(1);
  EXPECT_FALSE(group.is_live(1));
  EXPECT_THROW(group.run_on(1, [] {}), rt::RuntimeError);

  // Retired shards still report their final counters; live ones theirs.
  const obs::MetricsSnapshot snap = group.metrics_snapshot();
  EXPECT_NE(snap.find("shard1.rt.dispatches"), nullptr);
  EXPECT_NE(snap.find("shard2.rt.dispatches"), nullptr);
  group.stop();
}

// ---- lockstep transparency across topology changes -------------------------

struct ElasticLockstepResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
  int added = -1;
  int retired = -1;
};

/// Three sections over two manual shards, 800 items at 200 Hz. When `scale`
/// is set, a third shard is added at t = 2 s and section 1 is migrated onto
/// it; its old home — empty after the move — is retired at t = 4 s, all
/// mid-flow.
ElasticLockstepResult run_elastic_lockstep(bool scale) {
  shard::ShardGroup group(2, manual_opts());

  constexpr std::uint64_t kN = 800;
  CountingSource src("src", kN);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 32);
  ClockedPump p3("p3", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.section_count(), 3u);

  ElasticLockstepResult r;
  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(8);
       t += rt::milliseconds(100)) {
    group.step_until(t);
    if (scale && t == rt::seconds(2)) {
      r.added = group.add_shard();
      sr.sync_topology();
      r.retired = sr.shard_of_section(1);
      sr.migrate_section(1, r.added);
      EXPECT_EQ(sr.shard_of_section(1), r.added);
    }
    if (scale && t == rt::seconds(4)) {
      group.retire_shard(r.retired);  // empty since the migration
    }
  }
  EXPECT_TRUE(sr.finished());
  r.seqs = sink.seqs();
  r.eos = sink.eos_seen();
  return r;
}

TEST(ElasticLockstep, GrowMigrateRetireIsBitIdentical) {
  const ElasticLockstepResult plain = run_elastic_lockstep(false);
  const ElasticLockstepResult scaled = run_elastic_lockstep(true);

  ASSERT_EQ(plain.seqs.size(), 800u);
  ASSERT_EQ(scaled.seqs.size(), 800u);
  for (std::uint64_t i = 0; i < 800; ++i) {
    ASSERT_EQ(scaled.seqs[i], i) << "at " << i;
  }
  // The grown-and-shrunk run's output is bit-identical to the fixed run.
  EXPECT_EQ(scaled.seqs, plain.seqs);
  EXPECT_TRUE(plain.eos);
  EXPECT_TRUE(scaled.eos);
  EXPECT_EQ(scaled.added, 2);
  EXPECT_GE(scaled.retired, 0);
}

// ---- record -> replay of an elastic run ------------------------------------

/// Two sections over two shards with DigestProbes on both sides of the cut
/// (the replay suite's probed flow, reused for the elastic variant).
struct ElasticProbedPipeline {
  CountingSource src;
  ClockedPump p1;
  replay::DigestProbe up{"up"};
  Buffer buf{"buf", 32};
  ClockedPump p2;
  replay::DigestProbe down{"down"};
  CollectorSink sink{"sink"};
  Pipeline pipe;
  std::optional<shard::ShardedRealization> sr;

  ElasticProbedPipeline(shard::ShardGroup& g, std::uint64_t items, double hz)
      : src("src", items), p1("p1", hz), p2("p2", hz) {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, up, 0);
    pipe.connect(up, 0, buf, 0);
    pipe.connect(buf, 0, p2, 0);
    pipe.connect(p2, 0, down, 0);
    pipe.connect(down, 0, sink, 0);
    sr.emplace(g, pipe);
  }

  [[nodiscard]] std::vector<replay::Trace::Flow> flows() const {
    return {replay::Trace::Flow{"up", up.digest(), up.items()},
            replay::Trace::Flow{"down", down.digest(), down.items()}};
  }
};

TEST(ElasticRecordReplay, GrowShrinkRunReplaysBitIdentically) {
  replay::ScheduleRecorder rec;

  replay::Trace trace;
  {
    shard::ShardGroup group(2);
    ElasticProbedPipeline pl(group, 600, 400.0);
    ASSERT_EQ(pl.sr->section_count(), 2u);
    rec.attach(group);
    rec.install();
    group.launch();
    pl.sr->start();
    // Mid-flow: grow by one shard, move section 1 onto it, retire its old
    // home — all while items stream and the recorder watches.
    std::this_thread::sleep_for(400ms);
    const int added = group.add_shard();
    ASSERT_EQ(added, 2);
    pl.sr->sync_topology();
    const int victim = pl.sr->shard_of_section(1);
    pl.sr->migrate_section(1, added);
    group.retire_shard(victim);
    ASSERT_TRUE(pl.sr->wait_finished(30000ms));
    group.stop();
    rec.uninstall();
    for (const replay::Trace::Flow& f : pl.flows()) {
      rec.note_flow(f.name, f.digest, f.items);
    }
    trace = rec.finish();
    EXPECT_EQ(pl.down.items(), 600u);
  }

  // meta.n_shards is the ATTACH-time count; growth lives in kScale frames.
  EXPECT_EQ(trace.meta.n_shards, 2);
  const std::vector<std::uint64_t> counts = trace.kind_counts();
  EXPECT_EQ(counts[static_cast<int>(replay::FrameKind::kScale)], 2u);
  EXPECT_EQ(counts[static_cast<int>(replay::FrameKind::kMigration)], 3u);
  ASSERT_EQ(trace.flows.size(), 2u);

  replay::Replayer rp(trace);
  const replay::ReplayResult result = rp.run([](shard::ShardGroup& g) {
    auto st = std::make_shared<ElasticProbedPipeline>(g, 600, 400.0);
    st->sr->start();
    replay::Replayer::Build b;
    b.state = st;
    b.real = &*st->sr;
    b.flows = [st] { return st->flows(); };
    return b;
  });
  EXPECT_TRUE(result.ok) << result.summary;
  EXPECT_EQ(result.migrations_applied, 1);
  EXPECT_EQ(result.scales_applied, 2);
  EXPECT_GT(result.steps, 0u);
}

}  // namespace
}  // namespace infopipe
