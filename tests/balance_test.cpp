// ip_balance tests: live section migration and load rebalancing.
//
// The heart of the suite is the deterministic lockstep migration test: the
// same finite flow is run twice under manual shards and virtual clocks —
// once undisturbed, once with sections migrated back and forth mid-flow —
// and the sink must collect the exact same item sequence, bit for bit. That
// is the paper's thread-transparency claim made executable: a section's
// placement is invisible to the flow. The threaded tests then run the same
// machinery under real kernel threads (and TSan, in the check.sh stage) to
// shake out the concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "balance/accountant.hpp"
#include "balance/migration.hpp"
#include "balance/policy.hpp"
#include "balance/rebalancer.hpp"
#include "core/infopipes.hpp"
#include "shard/sharded_realization.hpp"
#include "shard/topology.hpp"

namespace infopipe::balance {
namespace {

using namespace std::chrono_literals;

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

/// Function stage whose section may never migrate (stands in for a
/// device-bound component).
class PinnedStage : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;
  [[nodiscard]] bool migratable() const override { return false; }

 protected:
  Item convert(Item x) override { return x; }
};

// --- deterministic lockstep migration ---------------------------------------

struct LockstepResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
  std::vector<shard::MigrationOutcome> outcomes;
};

/// Three sections over two manual shards, 1000 items at 200 Hz. When
/// `migrate` is set, section 1 is moved to the other shard at t = 2 s and
/// moved back at t = 4 s, mid-flow, with items queued in the cut storage.
LockstepResult run_lockstep(bool migrate) {
  shard::ShardGroup group(2, manual_opts());

  constexpr std::uint64_t kN = 1000;
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
  EXPECT_TRUE(sr.section_migratable(1));

  LockstepResult r;
  const int home = sr.shard_of_section(1);
  const int away = 1 - home;

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(8);
       t += rt::milliseconds(100)) {
    group.step_until(t);
    if (migrate && t == rt::seconds(2)) {
      r.outcomes.push_back(sr.migrate_section(1, away));
      EXPECT_EQ(sr.shard_of_section(1), away);
    }
    if (migrate && t == rt::seconds(4)) {
      r.outcomes.push_back(sr.migrate_section(1, home));
      EXPECT_EQ(sr.shard_of_section(1), home);
    }
  }
  EXPECT_TRUE(sr.finished());
  r.seqs = sink.seqs();
  r.eos = sink.eos_seen();
  return r;
}

TEST(Migration, LockstepMoveIsLossFreeAndBitIdentical) {
  const LockstepResult plain = run_lockstep(false);
  const LockstepResult moved = run_lockstep(true);

  // Zero loss, zero duplication, order preserved — in both runs.
  ASSERT_EQ(plain.seqs.size(), 1000u);
  ASSERT_EQ(moved.seqs.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(moved.seqs[i], i) << "at " << i;
  }
  // The migrated run's output is bit-identical to the undisturbed run.
  EXPECT_EQ(moved.seqs, plain.seqs);
  EXPECT_TRUE(plain.eos);
  EXPECT_TRUE(moved.eos);

  ASSERT_EQ(moved.outcomes.size(), 2u);
  EXPECT_EQ(moved.outcomes[0].section, 1u);
  EXPECT_NE(moved.outcomes[0].from, moved.outcomes[0].to);
  // Returning home reverses the first move's cut surgery.
  EXPECT_EQ(moved.outcomes[0].cuts_created, moved.outcomes[1].cuts_collapsed);
  EXPECT_EQ(moved.outcomes[0].cuts_collapsed, moved.outcomes[1].cuts_created);
}

TEST(Migration, CollapsesAndRecreatesCutsAcrossThreeShards) {
  shard::ShardGroup group(3, manual_opts());

  constexpr std::uint64_t kN = 600;
  CountingSource src("src", kN);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 32);
  ClockedPump p3("p3", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.section_count(), 3u);
  // One section per shard: both buffers are cuts.
  ASSERT_EQ(sr.live_channels().size(), 2u);
  const int s0 = sr.shard_of_section(0);
  const int s1 = sr.shard_of_section(1);

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }

  // Section 1 joins section 0: the b1 cut collapses back into a plain
  // buffer, the b2 cut persists with its producer side rebound.
  const shard::MigrationOutcome out1 = sr.migrate_section(1, s0);
  EXPECT_EQ(out1.cuts_collapsed, 1u);
  EXPECT_EQ(out1.cuts_created, 0u);
  EXPECT_EQ(out1.cuts_rebound, 1u);
  EXPECT_EQ(sr.live_channels().size(), 1u);
  EXPECT_EQ(sr.migrations(), 1u);

  for (rt::Time t = rt::seconds(1); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }

  // And leaves again: b1 splits into a fresh channel.
  const shard::MigrationOutcome out2 = sr.migrate_section(1, s1);
  EXPECT_EQ(out2.cuts_collapsed, 0u);
  EXPECT_EQ(out2.cuts_created, 1u);
  EXPECT_EQ(out2.cuts_rebound, 1u);
  EXPECT_EQ(sr.live_channels().size(), 2u);

  for (rt::Time t = rt::seconds(2); t <= rt::seconds(8);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_TRUE(sr.finished());
  const std::vector<std::uint64_t> seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(seqs[i], i);
  EXPECT_TRUE(sink.eos_seen());
}

// --- abandoned / interrupted moves -------------------------------------------

TEST(Migration, UserStopDuringMoveIsNotUndoneByResume) {
  shard::ShardGroup group(2, manual_opts());

  CountingSource src("src", 100000);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 32);
  ClockedPump p3("p3", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  const int home = sr.shard_of_section(1);
  const int away = 1 - home;

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }

  // A user stop() lands in the middle of the move: resume() must honour it
  // instead of restarting the affected shards from state latched before the
  // quiesce — that would leave part of the flow running against the stop.
  {
    shard::ShardedRealization::Migration m = sr.begin_migration(1, away);
    m.quiesce(std::chrono::milliseconds(1000));
    sr.stop();
    m.transfer();
    m.resume();
  }
  EXPECT_EQ(sr.shard_of_section(1), away);

  group.step_until(rt::seconds(2));
  EXPECT_TRUE(sr.finished());
  const std::size_t at_stop = sink.seqs().size();
  group.step_until(rt::seconds(3));
  EXPECT_EQ(sink.seqs().size(), at_stop);  // nothing kept flowing

  // start() resumes the whole flow in the new placement.
  sr.start();
  for (rt::Time t = rt::seconds(3); t <= rt::seconds(5);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_GT(sink.seqs().size(), at_stop);
}

TEST(Migration, QuiesceTimeoutRestartsTheFlow) {
  constexpr std::uint64_t kN = 30000;
  CountingSource src("src", kN);
  FreeRunningPump p1("p1");
  Buffer b1("b1", 16);
  FreeRunningPump p2("p2");
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();

  // A hopeless deadline: quiesce() posts the stops and then (almost
  // certainly) throws before the shards have parked. The destructor must
  // restart them even though the migration never reached phase 1; if the
  // shards happened to park in time, the abandoned phase-1 move restarts
  // them all the same. Either way the finite flow must still complete.
  try {
    shard::ShardedRealization::Migration m =
        sr.begin_migration(1, 1 - sr.shard_of_section(1));
    m.quiesce(std::chrono::milliseconds(0));
  } catch (const rt::RuntimeError&) {
  }

  ASSERT_TRUE(sr.wait_finished(60000ms));
  group.stop();  // joins host threads: direct reads below are race-free
  const std::vector<std::uint64_t> seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(seqs[i], i);
  EXPECT_TRUE(sink.eos_seen());
}

// --- pinning -----------------------------------------------------------------

TEST(Migration, PinnedSectionsAreRejected) {
  shard::ShardGroup group(2, manual_opts());

  CountingSource src("src", 100);
  FreeRunningPump p1("p1");
  Buffer drop("drop", 8, FullPolicy::kDropOldest);  // forces colocation
  FreeRunningPump p2("p2");
  CountingSink sink("sink");
  auto ch = src >> p1 >> drop >> p2 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  // kDropOldest cannot be reproduced over a channel: both adjacent sections
  // are colocated and therefore pinned.
  for (std::size_t s = 0; s < sr.section_count(); ++s) {
    EXPECT_FALSE(sr.section_migratable(s)) << "section " << s;
    EXPECT_THROW((void)sr.begin_migration(s, 1), CompositionError);
  }
}

TEST(Migration, NonMigratableComponentPinsOnlyItsSection) {
  shard::ShardGroup group(2, manual_opts());

  CountingSource src("src", 100);
  PinnedStage dev("dev");  // device-bound stand-in, same section as src
  FreeRunningPump p1("p1");
  Buffer b1("b1", 8);
  FreeRunningPump p2("p2");
  CountingSink sink("sink");
  auto ch = src >> dev >> p1 >> b1 >> p2 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.section_count(), 2u);
  EXPECT_FALSE(sr.section_migratable(0));
  EXPECT_TRUE(sr.section_migratable(1));
  EXPECT_THROW((void)sr.begin_migration(0, 1), CompositionError);

  // Range and identity errors.
  EXPECT_THROW((void)sr.begin_migration(99, 0), CompositionError);
  EXPECT_THROW((void)sr.begin_migration(1, 7), CompositionError);
  EXPECT_THROW((void)sr.begin_migration(1, sr.shard_of_section(1)),
               CompositionError);
}

// --- accountant + policy -----------------------------------------------------

TEST(Rebalancer, SkewedLoadMigratesTowardTheIdleShard) {
  shard::ShardGroup group(2, manual_opts());

  CountingSource src("src", 100000);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 32);
  ClockedPump p3("p3", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }

  // Load the shard hosting TWO sections (the construction partitioner put
  // sections 0 and 2 together): the target planner offloads exactly one of
  // them toward the idle shard. (The one-section shard reading hot is the
  // placement the planner correctly refuses to churn — no single move can
  // improve a shard whose whole load is one section.)
  const int hot = sr.shard_of_section(0);
  ASSERT_EQ(sr.shard_of_section(2), hot);
  const int cold = 1 - hot;
  Rebalancer rb(sr);
  rb.accountant().note_busy_sample(hot, 0.9);
  rb.accountant().note_busy_sample(cold, 0.1);

  const std::optional<MigrationReport> rep = rb.step();
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->ok()) << rep->error;
  EXPECT_EQ(rep->from, hot);
  EXPECT_EQ(rep->to, cold);
  EXPECT_EQ(sr.shard_of_section(rep->section), cold);
  EXPECT_EQ(rb.migrations_attempted(), 1u);
  EXPECT_GE(rb.steps(), 1u);

  const obs::MetricsSnapshot ms = rb.metrics_snapshot();
  const obs::MetricValue* moved = ms.find("balance.migration.count");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->count, 1u);
  const obs::MetricValue* imb = ms.find("balance.imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_NEAR(imb->value, 0.8, 1e-9);

  // The flow keeps running in the new placement.
  for (rt::Time t = rt::seconds(1); t <= rt::seconds(3);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_GT(sink.count(), 100u);
}

TEST(Rebalancer, BalancedLoadHoldsStill) {
  shard::ShardGroup group(2, manual_opts());

  CountingSource src("src", 1000);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  CountingSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  Rebalancer rb(sr);
  rb.accountant().note_busy_sample(0, 0.5);
  rb.accountant().note_busy_sample(1, 0.5);
  EXPECT_FALSE(rb.step().has_value());
  rb.accountant().note_busy_sample(0, 0.55);
  EXPECT_FALSE(rb.step().has_value());  // inside the hysteresis band
  EXPECT_EQ(rb.migrations_attempted(), 0u);
  EXPECT_EQ(sr.migrations(), 0u);
}

TEST(Rebalancer, ElasticScaleUpAndDownWithHysteresis) {
  shard::ShardGroup group(2, manual_opts());

  constexpr std::uint64_t kN = 1000;
  CountingSource src("src", kN);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 32);
  ClockedPump p3("p3", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();

  Rebalancer::Options o;
  o.policy.min_imbalance = 2.0;  // unreachable: isolate the scaling triggers
  o.elastic.enabled = true;
  o.elastic.scale_up_steps = 3;
  o.elastic.scale_down_steps = 4;
  o.elastic.cooldown_steps = 2;
  o.elastic.min_shards = 2;
  o.elastic.max_shards = 3;
  Rebalancer rb(sr, o);

  rt::Time t = 0;
  const auto tick = [&] {
    t += rt::milliseconds(100);
    group.step_until(t);
  };

  // Saturation held for scale_up_steps consecutive samples grows the group.
  rb.accountant().note_busy_sample(0, 0.9);
  rb.accountant().note_busy_sample(1, 0.9);
  for (int i = 0; i < 3; ++i) {
    (void)rb.step();
    tick();
  }
  EXPECT_EQ(rb.scale_ups(), 1u);
  EXPECT_EQ(group.size(), 3);
  EXPECT_EQ(group.live_count(), 3);

  // The unmeasured new shard drags the live mean below the watermark: no
  // further growth (hysteresis, cooldown and max_shards all agree).
  for (int i = 0; i < 3; ++i) {
    (void)rb.step();
    tick();
  }
  EXPECT_EQ(rb.scale_ups(), 1u);

  // Sustained idleness drains and retires the emptiest shard — exactly
  // once: min_shards floors the topology at two.
  for (int i = 0; i < 14; ++i) {
    for (int s = 0; s < 3; ++s) rb.accountant().note_busy_sample(s, 0.0);
    (void)rb.step();
    tick();
  }
  EXPECT_EQ(rb.scale_downs(), 1u);
  EXPECT_EQ(group.live_count(), 2);
  EXPECT_EQ(group.size(), 3);  // the retired slot is retained

  const obs::MetricsSnapshot ms = rb.metrics_snapshot();
  const obs::MetricValue* ups = ms.find("balance.scale.up");
  ASSERT_NE(ups, nullptr);
  EXPECT_EQ(ups->count, 1u);
  const obs::MetricValue* downs = ms.find("balance.scale.down");
  ASSERT_NE(downs, nullptr);
  EXPECT_EQ(downs->count, 1u);

  // The flow rode through one grow and one shrink untouched.
  while (t < rt::seconds(8)) tick();
  EXPECT_TRUE(sr.finished());
  const std::vector<std::uint64_t> seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(seqs[i], i);
}

TEST(Policy, CooldownSuppressesBackToBackDecisions) {
  shard::ShardGroup group(2, manual_opts());
  CountingSource src("src", 1000);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 32);
  ClockedPump p2("p2", 200.0);
  CountingSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());

  const int hot = sr.shard_of_section(0);
  LoadSnapshot load;
  load.busy.assign(2, 0.1);
  load.busy[static_cast<std::size_t>(hot)] = 0.9;

  RebalancePolicy pol;  // cooldown_steps = 2
  ASSERT_TRUE(pol.decide(load, sr).has_value());
  EXPECT_FALSE(pol.decide(load, sr).has_value());
  EXPECT_FALSE(pol.decide(load, sr).has_value());
  EXPECT_TRUE(pol.decide(load, sr).has_value());
}

// --- topology ----------------------------------------------------------------

TEST(Topology, ParsesCpulistsAndMapsShards) {
  const std::vector<int> cpus =
      shard::Topology::parse_cpulist("0-3,8,10-11");
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_TRUE(shard::Topology::parse_cpulist("").empty());
  EXPECT_TRUE(shard::Topology::parse_cpulist("garbage").empty());

  const shard::Topology flat;
  EXPECT_TRUE(flat.flat());
  EXPECT_EQ(flat.nodes(), 1);
  EXPECT_EQ(flat.node_of_shard(3), 0);

  const shard::Topology two({0, 0, 1, 1});
  EXPECT_FALSE(two.flat());
  EXPECT_EQ(two.nodes(), 2);
  EXPECT_EQ(two.node_of_cpu(2), 1);
  // Shard 5 on 4 CPUs pins to core 1 (5 % 4) -> node 0.
  EXPECT_EQ(two.node_of_shard(5, 4), 0);

  // Whatever this machine looks like, the probe must come back usable.
  const shard::Topology here = shard::Topology::detect();
  EXPECT_GE(here.nodes(), 1);
}

TEST(Policy, PrefersSameNodeTargetsWhenEquallyIdle) {
  shard::ShardGroup group(4, manual_opts());
  CountingSource src("src", 1000);
  ClockedPump p1("p1", 200.0);
  Buffer b1("b1", 16);
  ClockedPump p2("p2", 200.0);
  Buffer b2("b2", 16);
  ClockedPump p3("p3", 200.0);
  Buffer b3("b3", 16);
  ClockedPump p4("p4", 200.0);
  CountingSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> b3 >> p4 >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.section_count(), 4u);

  // Shards 0,1 on node 0; shards 2,3 on node 1. Load the shard hosting some
  // migratable section; here every section is migratable, so pick shard 0's.
  std::size_t sec0 = 0;
  for (std::size_t s = 0; s < sr.section_count(); ++s) {
    if (sr.shard_of_section(s) == 0) sec0 = s;
  }
  ASSERT_EQ(sr.shard_of_section(sec0), 0);

  const shard::Topology topo({0, 0, 1, 1});

  // An equally idle same-node shard (1) beats the cross-node global
  // minimum (2).
  {
    RebalancePolicy pol(PolicyOptions{}, topo);
    LoadSnapshot load;
    load.busy = {0.9, 0.15, 0.1, 0.5};
    const auto d = pol.decide(load, sr);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->from, 0);
    EXPECT_EQ(d->to, 1);
  }
  // With no idle shard on the source's node, the global minimum wins.
  {
    RebalancePolicy pol(PolicyOptions{}, topo);
    LoadSnapshot load;
    load.busy = {0.9, 0.5, 0.1, 0.12};
    const auto d = pol.decide(load, sr);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->from, 0);
    EXPECT_EQ(d->to, 2);
  }
}

// --- threaded stress ---------------------------------------------------------

TEST(Migration, RepeatedMovesUnderLiveLoadLoseNothing) {
  constexpr std::uint64_t kN = 200000;
  CountingSource src("src", kN);
  FreeRunningPump p1("p1");
  Buffer b1("b1", 16);
  FreeRunningPump p2("p2");
  Buffer b2("b2", 16);
  FreeRunningPump p3("p3");
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();

  // Bounce the middle section between the shards while items stream.
  int moves = 0;
  for (int i = 0; i < 6 && !sr.finished(); ++i) {
    std::this_thread::sleep_for(3ms);
    const int from = sr.shard_of_section(1);
    const shard::MigrationOutcome out = sr.migrate_section(1, 1 - from);
    EXPECT_EQ(out.to, 1 - from);
    ++moves;
  }
  EXPECT_GT(moves, 0);
  ASSERT_TRUE(sr.wait_finished(60000ms));
  group.stop();  // joins host threads: direct reads below are race-free

  const std::vector<std::uint64_t> seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seqs[i], i) << "at " << i;
  }
  EXPECT_TRUE(sink.eos_seen());
  EXPECT_EQ(sr.migrations(), static_cast<std::uint64_t>(moves));
}

TEST(Rebalancer, AutonomousLoopRunsOnItsOwnThread) {
  constexpr std::uint64_t kN = 50000;
  CountingSource src("src", kN);
  FreeRunningPump p1("p1");
  Buffer b1("b1", 16);
  FreeRunningPump p2("p2");
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());

  Rebalancer::Options opts;
  opts.period = rt::milliseconds(10);
  Rebalancer rb(sr, opts);
  rb.launch();
  EXPECT_TRUE(rb.running());

  sr.start();
  ASSERT_TRUE(sr.wait_finished(60000ms));
  std::this_thread::sleep_for(50ms);  // a few more idle control cycles
  rb.stop();
  EXPECT_FALSE(rb.running());
  group.stop();

  // The control loop sampled on its own kernel thread; whether it migrated
  // depends on scheduling, but the flow must be untouched either way.
  EXPECT_GT(rb.steps(), 3u);
  const obs::MetricsSnapshot ms = rb.metrics_snapshot();
  const obs::MetricValue* steps = ms.find("balance.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->count, rb.steps());

  const std::vector<std::uint64_t> seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(seqs[i], i);
  EXPECT_TRUE(sink.eos_seen());
}

}  // namespace
}  // namespace infopipe::balance
