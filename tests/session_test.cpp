// ip_session tests: one shared plan stamped into many live flows.
//
// The deterministic core runs under manual ShardGroups and virtual clocks —
// the same lockstep harness the balance suite uses — so session emission,
// class stealing and admission replay bit-identically across runs, which is
// asserted literally (two full runs, equal digests). A per-flow reference —
// one classic pipeline and one realization per session, built here in the
// test — runs in the same harness: per-session digests must match the
// shared table's, while the realization counter exposes the cost the shared
// path avoids. The network
// front door runs real loopback TCP: N concurrent peers, each with its own
// adopted transport, opening and closing sessions through control frames.
#include <gtest/gtest.h>
#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "balance/accountant.hpp"
#include "core/infopipes.hpp"
#include "core/realization_handle.hpp"
#include "net/error.hpp"
#include "net/socket_transport.hpp"
#include "rt/clock.hpp"
#include "rt/io_bridge.hpp"
#include "session/acceptor.hpp"
#include "session/engine.hpp"
#include "session/plan.hpp"
#include "session/session.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

// Counting global allocator for the engine-state bound: live heap bytes
// on this OS thread while a test opens its window. A manual ShardGroup runs
// every shard's user-level threads on the thread that steps it, so the
// count covers the engines.
namespace {
thread_local bool t_count_bytes = false;
thread_local std::int64_t t_live_bytes = 0;
}  // namespace

// GCC cannot see that the replaced new and delete pair malloc with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
// The nothrow form too (std::stable_sort's buffer in place()), or a
// sanitizer's own nothrow new would pair with the free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && t_count_bytes) {
    t_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  }
  return p;
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr && t_count_bytes) {
    t_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
#pragma GCC diagnostic pop

namespace infopipe::session {
namespace {

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

// ---------- the shared plan --------------------------------------------------------

TEST(SharedPlan, AnalyzedOnceAndStampedManyTimes) {
  EngineSpec spec;
  spec.stages = [](int) {
    std::vector<std::unique_ptr<Component>> v;
    v.push_back(std::make_unique<IdentityFunction>("sess.id"));
    return v;
  };
  const auto plan = SharedPlan::analyze(std::move(spec));

  // The planner saw src >> governor >> stage >> lag >> sink: one active
  // source driving one all-passive section.
  const PlanInfo& info = plan->info();
  EXPECT_EQ(info.components, 5u);
  ASSERT_EQ(info.sections.size(), 1u);
  EXPECT_EQ(info.sections[0].driver, "sess.src");
  EXPECT_EQ(info.sections[0].driver_style, Style::kActiveSource);
  bool has_gov = false;
  bool has_stage = false;
  for (const PlanInfo::Member& m : info.sections[0].members) {
    if (m.name == "sess.governor") has_gov = true;
    if (m.name == "sess.id") has_stage = true;
  }
  EXPECT_TRUE(has_gov);
  EXPECT_TRUE(has_stage);  // the factory's stage sits inside the section

  shard::ShardGroup group(2, manual_opts());
  SessionTable table(group, plan);
  // One realize per shard, at construction — and never again.
  EXPECT_EQ(table.realizations(), 2u);

  std::vector<SessionId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(table.open_on(i % 2, SessionParams{}));
  }
  EXPECT_EQ(table.realizations(), 2u);  // stamps, not realizations
  EXPECT_EQ(table.live(), 100u);
  EXPECT_EQ(table.live_on(0), 50u);
  EXPECT_EQ(table.live_on(1), 50u);
  // Every session shares the ONE PlanInfo — the same object, not a copy.
  EXPECT_EQ(&table.plan_info(), &plan->info());

  for (SessionId id : ids) table.close(id);
  EXPECT_EQ(table.live(), 0u);
}

// ---------- lockstep emission and class stealing -----------------------------------

struct LockstepResult {
  std::vector<std::uint64_t> items;    // gold0, silver0, bronze0, gold1
  std::vector<std::uint64_t> digests;
  std::array<double, 3> mult0{};
  double bronze1 = 0.0;
  std::uint64_t total = 0;
  JitterSnapshot jitter;

  bool operator==(const LockstepResult& o) const {
    return items == o.items && digests == o.digests && total == o.total;
  }
};

LockstepResult lockstep_run() {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  std::vector<SessionId> ids;
  ids.push_back(table.open_on(0, SessionParams{QosClass::kGold, 20.0, 32}));
  ids.push_back(table.open_on(0, SessionParams{QosClass::kSilver, 20.0, 32}));
  ids.push_back(table.open_on(0, SessionParams{QosClass::kBronze, 20.0, 32}));
  ids.push_back(table.open_on(1, SessionParams{QosClass::kGold, 20.0, 32}));

  group.step_until(rt::seconds(1));
  // Pressure on shard 0: exactly what one feedback actuation would apply.
  table.inject_hint(0, 0.25);
  group.step_until(rt::seconds(3));

  LockstepResult r;
  for (SessionId id : ids) {
    r.items.push_back(table.items_of(id));
    r.digests.push_back(table.digest(id));
  }
  r.mult0 = {table.mult(0, QosClass::kGold), table.mult(0, QosClass::kSilver),
             table.mult(0, QosClass::kBronze)};
  r.bronze1 = table.mult(1, QosClass::kBronze);
  r.total = table.items_total();
  r.jitter = table.jitter();
  for (SessionId id : ids) table.close(id);
  return r;
}

TEST(SessionLockstep, ClassStealingIsBitIdenticalAcrossRuns) {
  const LockstepResult a = lockstep_run();
  const LockstepResult b = lockstep_run();
  EXPECT_TRUE(a == b) << "lockstep session runs diverged";

  // The hint degraded bronze to 0.25, silver to the midpoint, gold not at
  // all — so gold kept its cadence while bronze lost most of it.
  EXPECT_DOUBLE_EQ(a.mult0[0], 1.0);
  EXPECT_DOUBLE_EQ(a.mult0[1], 0.625);
  EXPECT_DOUBLE_EQ(a.mult0[2], 0.25);
  EXPECT_DOUBLE_EQ(a.bronze1, 1.0);  // the hint touched only shard 0
  EXPECT_GT(a.items[0], a.items[1]);  // gold > silver
  EXPECT_GT(a.items[1], a.items[2]);  // silver > bronze
  EXPECT_EQ(a.items[0], a.items[3]);  // gold cadence equal on both shards
  for (std::uint64_t d : a.digests) EXPECT_NE(d, 0u);

  // Virtual clocks fire exactly on schedule: inter-item jitter is zero.
  EXPECT_GT(a.jitter.samples, 0u);
  EXPECT_LE(a.jitter.p99_ns, 1u);
}

// ---------- the per-flow reference ------------------------------------------------

/// The classic one-flow-one-realization source: emits exactly the items the
/// shared engine stamps for session `id` (same make_session_item, same
/// first-fire-then-every-period schedule).
class PerFlowSource : public ClockedSourceBase {
 public:
  PerFlowSource(SessionId id, const SessionParams& p)
      : ClockedSourceBase("ref.src", p.rate_hz > 0.0 ? p.rate_hz : 1.0),
        id_(id),
        bytes_(p.payload_bytes) {}

 protected:
  [[nodiscard]] Item generate() override {
    return make_session_item(scratch_, id_, seq_++, pipeline_now(), bytes_);
  }

 private:
  SessionId id_;
  std::size_t bytes_;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> scratch_;
};

/// One session as its own pipeline and realization on its home shard: the
/// plan's stages between a PerFlowSource and a SessionSink.
struct PerFlow {
  ShardState state;
  PerFlowSource src;
  std::vector<std::unique_ptr<Component>> stages;
  SessionSink sink{"ref.sink", &state};
  std::shared_ptr<Pipeline> pipe = std::make_shared<Pipeline>();
  std::unique_ptr<Realization> real;

  PerFlow(shard::ShardGroup& group, const SharedPlan& plan, SessionId id,
          const SessionParams& p)
      : src(id, p) {
    const int shard = shard_of_session(id);
    if (plan.spec().stages) stages = plan.spec().stages(shard);
    Component* prev = &src;
    for (auto& stage : stages) {
      pipe->connect(*prev, *stage);
      prev = stage.get();
    }
    pipe->connect(*prev, sink);
    real = std::make_unique<Realization>(group.runtime(shard), pipe);
    real->post_event(Event{kEventStart});
  }
};

struct FlowResult {
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> digests;
};

TEST(SessionReference, SharedTableMatchesPerFlowRealizations) {
  const auto plan = SharedPlan::analyze(EngineSpec{});
  // The sessions both runs open, in open order: (home shard, params).
  const std::vector<std::pair<int, SessionParams>> sessions{
      {0, SessionParams{QosClass::kGold, 20.0, 32}},
      {0, SessionParams{QosClass::kBronze, 5.0, 16}},
      {1, SessionParams{QosClass::kSilver, 10.0, 8}},
  };

  FlowResult shared;
  std::vector<SessionId> ids;  // as the table issued them
  {
    shard::ShardGroup group(2, manual_opts());
    SessionTable table(group, plan);
    for (const auto& [shard, p] : sessions) {
      ids.push_back(table.open_on(shard, p));
    }
    group.step_until(rt::seconds(2));
    for (SessionId id : ids) {
      shared.items.push_back(table.items_of(id));
      shared.digests.push_back(table.digest(id));
    }
    // The cost difference is the whole point: one realization per shard,
    // where the reference below needs one per session.
    EXPECT_EQ(table.realizations(), 2u);
    for (SessionId id : ids) table.close(id);
  }

  FlowResult ref;
  {
    shard::ShardGroup group(2, manual_opts());
    std::vector<std::unique_ptr<PerFlow>> flows;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      flows.push_back(
          std::make_unique<PerFlow>(group, *plan, ids[i], sessions[i].second));
    }
    group.step_until(rt::seconds(2));
    for (std::size_t i = 0; i < flows.size(); ++i) {
      ref.items.push_back(flows[i]->sink.items_of(ids[i]));
      ref.digests.push_back(flows[i]->sink.digest_of(ids[i]));
    }
    for (auto& f : flows) f->real->post_event(Event{kEventShutdown});
  }

  // Same ids, same item counts, same payload digests — the sessions cannot
  // tell which path produced them.
  EXPECT_EQ(shared.items, ref.items);
  EXPECT_EQ(shared.digests, ref.digests);
  for (std::uint64_t d : shared.digests) EXPECT_NE(d, 0u);
  for (std::uint64_t n : shared.items) EXPECT_GT(n, 0u);
}

TEST(SessionReference, CadencesBeyondOneWheelRevolutionMatchPerFlow) {
  // Periods of 2 s and 3.3 s outlast the wheel's 537 ms revolution, so
  // their entries wait in a bucket through several passes of their tick.
  const auto plan = SharedPlan::analyze(EngineSpec{});
  const std::vector<SessionParams> params{
      SessionParams{QosClass::kBronze, 0.5, 8},
      SessionParams{QosClass::kSilver, 0.3, 8},
      SessionParams{QosClass::kGold, 200.0, 8},
  };
  FlowResult shared;
  std::vector<SessionId> ids;
  {
    shard::ShardGroup group(1, manual_opts());
    SessionTable table(group, plan);
    for (const SessionParams& p : params) ids.push_back(table.open_on(0, p));
    group.step_until(rt::seconds(10));
    for (const SessionId id : ids) {
      shared.items.push_back(table.items_of(id));
      shared.digests.push_back(table.digest(id));
    }
  }
  FlowResult ref;
  {
    shard::ShardGroup group(1, manual_opts());
    std::vector<std::unique_ptr<PerFlow>> flows;
    for (std::size_t i = 0; i < params.size(); ++i) {
      flows.push_back(std::make_unique<PerFlow>(group, *plan, ids[i],
                                                params[i]));
    }
    group.step_until(rt::seconds(10));
    for (std::size_t i = 0; i < flows.size(); ++i) {
      ref.items.push_back(flows[i]->sink.items_of(ids[i]));
      ref.digests.push_back(flows[i]->sink.digest_of(ids[i]));
    }
    for (auto& f : flows) f->real->post_event(Event{kEventShutdown});
  }
  EXPECT_EQ(shared.items, ref.items);
  EXPECT_EQ(shared.digests, ref.digests);
  EXPECT_GE(shared.items[0], 5u);
  EXPECT_GE(shared.items[1], 3u);
}

TEST(SessionTableManual, CloseStopsEmissionExactly) {
  shard::ShardGroup group(1, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  const SessionId id =
      table.open_on(0, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(1));
  const std::uint64_t before = table.items_of(id);
  EXPECT_GE(before, 100u);

  table.close(id);
  EXPECT_EQ(table.live(), 0u);
  group.step_until(rt::seconds(2));
  // The close drains before the next cycle: not one more item.
  EXPECT_EQ(table.items_of(id), before);
}

TEST(SessionTableManual, ChurnKeepsEngineStateBounded) {
  shard::ShardGroup group(1, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  const SessionParams p{QosClass::kBronze, 1000.0, 8};

  // 1000 rounds of 100 sessions: each round opens its sessions, lets each
  // emit (the first fire is at the drain, at most one idle poll away),
  // closes them, and lets the engine take the closes in.
  constexpr int kBatch = 100;
  constexpr int kRounds = 1000;
  std::vector<SessionId> ids(kBatch);
  SessionId first = 0;
  rt::Time t = 0;
  std::int64_t after_first = 0;
  t_live_bytes = 0;
  t_count_bytes = true;
  for (int r = 0; r < kRounds; ++r) {
    for (SessionId& id : ids) id = table.open_on(0, p);
    if (r == 0) first = ids[0];
    group.step_until(t += rt::milliseconds(10));
    for (const SessionId id : ids) {
      EXPECT_GT(table.items_of(id), 0u);
      table.close(id);
    }
    group.step_until(t += rt::milliseconds(10));
    if (r == kRounds / 10 - 1) after_first = t_live_bytes;
  }
  t_count_bytes = false;
  EXPECT_EQ(table.live(), 0u);
  // The last round's sessions still answer; the first one's slot changed
  // occupant far more often than the closed-session ring holds.
  EXPECT_GT(table.items_of(ids[0]), 0u);
  EXPECT_EQ(table.items_of(first), 0u);

  // Per-engine state is the slots plus the closed-session ring. A slot
  // retires after kSessionGenerations occupants, so 9 * 10^4 further
  // sessions add ~700 slots of records (about 0.1 MB, with the vectors'
  // growth); one record per session ever opened would add megabytes.
  constexpr std::int64_t kBoundBytes = 256 * 1024;
  EXPECT_LT(t_live_bytes - after_first, kBoundBytes)
      << "engine state grew by " << (t_live_bytes - after_first)
      << " bytes over 9 * 10^4 sessions";
}

// ---------- session identity -------------------------------------------------------

/// Records the first seq each session delivers.
class FirstSeq : public FunctionComponent {
 public:
  explicit FirstSeq(std::map<SessionId, std::uint64_t>* first)
      : FunctionComponent("first-seq"), first_(first) {}

 protected:
  Item convert(Item x) override {
    first_->emplace(static_cast<SessionId>(static_cast<std::uint32_t>(x.kind)),
                    x.seq);
    return x;
  }

 private:
  std::map<SessionId, std::uint64_t>* first_;
};

TEST(SessionIds, UniqueAcrossSlotReuse) {
  std::map<SessionId, std::uint64_t> first_seq;
  EngineSpec spec;
  spec.stages = [&first_seq](int) {
    std::vector<std::unique_ptr<Component>> v;
    v.push_back(std::make_unique<FirstSeq>(&first_seq));
    return v;
  };
  const auto plan = SharedPlan::analyze(std::move(spec));
  shard::ShardGroup group(1, manual_opts());
  SessionTable table(group, plan);
  const SessionParams p{QosClass::kGold, 1000.0, 16};

  // One session at a time, each closed and taken in before the next opens,
  // so every open lands on the one free slot until its generations run out.
  const int n = static_cast<int>(kSessionGenerations) + 3;
  std::vector<SessionId> ids;
  std::vector<std::uint64_t> items;
  rt::Time t = 0;
  for (int i = 0; i < n; ++i) {
    ids.push_back(table.open_on(0, p));
    group.step_until(t += rt::milliseconds(10));
    table.close(ids.back());
    group.step_until(t += rt::milliseconds(10));
    items.push_back(table.items_of(ids.back()));
    ASSERT_GT(items.back(), 0u);
  }

  EXPECT_EQ(std::set<SessionId>(ids.begin(), ids.end()).size(), ids.size());
  for (int i = 0; i < static_cast<int>(kSessionGenerations); ++i) {
    EXPECT_EQ(slot_of_session(ids[static_cast<std::size_t>(i)]),
              slot_of_session(ids[0]));
  }
  // The slot's generations are used up: it is never issued again.
  for (std::size_t i = kSessionGenerations; i < ids.size(); ++i) {
    EXPECT_NE(slot_of_session(ids[i]), slot_of_session(ids[0]));
  }
  for (const SessionId id : ids) EXPECT_EQ(first_seq.at(id), 0u);

  // The previous occupant of a reused slot answers from the ring.
  EXPECT_EQ(table.items_of(ids[0]), items[0]);
  EXPECT_EQ(table.items_of(ids[1]), items[1]);

  // A reused slot's stream is exactly the per-flow reference's.
  const SessionId reused = ids[1];
  shard::ShardGroup ref_group(1, manual_opts());
  PerFlow flow(ref_group, *plan, reused, p);
  rt::Time rt_t = 0;
  while (flow.sink.items_of(reused) < items[1]) {
    ref_group.step_until(rt_t += rt::milliseconds(1));
  }
  EXPECT_EQ(flow.sink.items_of(reused), items[1]);
  EXPECT_EQ(flow.sink.digest_of(reused), table.digest(reused));
  flow.real->post_event(Event{kEventShutdown});
}

TEST(SessionIds, OpenThrowsWhenTheShardHasNoSlotLeft) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  for (std::uint32_t i = 0; i < kSessionSlots; ++i) {
    (void)table.open_on(0, SessionParams{});
  }
  EXPECT_THROW((void)table.open_on(0, SessionParams{}), std::length_error);
  EXPECT_EQ(table.live_on(0), kSessionSlots);
  const SessionId other = table.open_on(1, SessionParams{});
  EXPECT_EQ(shard_of_session(other), 1);
}

// ---------- jitter accounting ------------------------------------------------------

TEST(SessionJitter, RecordBucketsMatchTheLinearScan) {
  // The engines' jitter histogram is obs::Histogram: bucket b holds
  // [2^(b-1), 2^b), negatives count as 0.
  const auto scan = [](std::int64_t v) {
    const std::uint64_t ns = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    int b = 0;
    while (b < obs::Histogram::kBuckets - 1 &&
           ns >= (std::uint64_t{1} << b)) {
      ++b;
    }
    return b;
  };
  const auto recorded = [](std::int64_t ns) {
    obs::Histogram h;
    h.record(ns);
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      if (h.bucket(b) != 0) return b;
    }
    return -1;
  };
  std::vector<std::int64_t> values{0, 1, -5,
                                   std::numeric_limits<std::int64_t>::max()};
  for (int k = 1; k < 63; ++k) {
    values.push_back((std::int64_t{1} << k) - 1);
    values.push_back(std::int64_t{1} << k);
  }
  for (const std::int64_t ns : values) {
    EXPECT_EQ(recorded(ns), scan(ns)) << "ns = " << ns;
  }
}

// ---------- elastic topology -------------------------------------------------------

TEST(SessionTableElastic, GrowsAndRetiresEnginesMidRun) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  EXPECT_EQ(table.realizations(), 2u);

  // Growth: one engine realized for the new shard, exactly once.
  const int added = group.add_shard();
  table.sync_topology();
  EXPECT_EQ(table.shards(), 3);
  EXPECT_EQ(table.realizations(), 3u);
  table.sync_topology();  // idempotent
  EXPECT_EQ(table.realizations(), 3u);

  // The new engine pumps like its siblings.
  const SessionId id =
      table.open_on(added, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(1));
  EXPECT_GE(table.items_of(id), 100u);

  // Retirement force-closes what was open there and refuses new stamps.
  table.retire_shard(added);
  EXPECT_EQ(table.live_on(added), 0u);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_THROW((void)table.open_on(added, SessionParams{}), std::out_of_range);
  group.retire_shard(added);
  EXPECT_EQ(table.live_shards(), (std::vector<int>{0, 1}));

  // Survivors keep stamping and pumping.
  const SessionId id2 =
      table.open_on(0, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(2));
  EXPECT_GT(table.items_of(id2), 0u);
  table.close(id2);
}

// ---------- admission --------------------------------------------------------------

TEST(SessionAcceptorTest, DecidesDeterministicallyAgainstMeasuredLoad) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  acct.note_busy_sample(0, 0.60);
  acct.note_busy_sample(1, 0.80);

  AdmissionPolicy pol;
  pol.cost_per_item = 0.01;  // rate 5 Hz -> planned load 0.05
  SessionAcceptor acc(table, acct, pol);

  // Same inputs, same decision — three times over.
  const SessionParams small{QosClass::kBronze, 5.0, 8};
  const Decision d1 = acc.decide(small);
  const Decision d2 = acc.decide(small);
  const Decision d3 = acc.decide(small);
  EXPECT_TRUE(d1.admitted);
  EXPECT_EQ(d1.shard, 0);  // 0.60 < 0.80: least-loaded wins
  EXPECT_EQ(d1.admitted, d2.admitted);
  EXPECT_EQ(d1.shard, d2.shard);
  EXPECT_EQ(d1.load, d3.load);

  // A heavy bronze session would push shard 0 past the bronze watermark
  // (0.60 + 0.20 > 0.70) — refused, with the reason spelled out. The same
  // load is fine for gold (0.80 <= 0.95) and silver (0.80 <= 0.85).
  const SessionParams heavy_bronze{QosClass::kBronze, 20.0, 8};
  const Decision rb = acc.decide(heavy_bronze);
  EXPECT_FALSE(rb.admitted);
  EXPECT_NE(rb.reason.find("bronze"), std::string::npos);
  EXPECT_NE(rb.reason.find("watermark"), std::string::npos);
  EXPECT_TRUE(acc.decide(SessionParams{QosClass::kGold, 20.0, 8}).admitted);
  EXPECT_TRUE(acc.decide(SessionParams{QosClass::kSilver, 20.0, 8}).admitted);

  // open() is decide() plus bookkeeping; close() releases it.
  const SessionAcceptor::OpenResult ok = acc.open(small);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.shard, 0);
  EXPECT_DOUBLE_EQ(acc.planned_load(0), 0.05);
  const SessionAcceptor::OpenResult no = acc.open(heavy_bronze);
  EXPECT_FALSE(no.ok);
  EXPECT_FALSE(no.reason.empty());
  EXPECT_EQ(acc.admitted(), 1u);
  EXPECT_EQ(acc.rejected(), 1u);
  acc.close(ok.id);
  EXPECT_DOUBLE_EQ(acc.planned_load(0), 0.0);
  EXPECT_EQ(table.live(), 0u);
}

TEST(SessionAcceptorTest, PlannedLoadSpreadsAdmissionsBeforeTheEwmaSees) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);  // no samples: measured load is zero

  AdmissionPolicy pol;
  pol.cost_per_item = 0.125;  // exact in binary: no FP edge at the watermark
  SessionAcceptor acc(table, acct, pol);

  const SessionParams p{QosClass::kBronze, 1.0, 8};
  std::vector<int> shards;
  while (true) {
    const SessionAcceptor::OpenResult r = acc.open(p);
    if (!r.ok) break;
    shards.push_back(r.shard);
    ASSERT_LT(shards.size(), 50u) << "bronze watermark never reached";
  }
  // The EWMA is blind to brand-new sessions; the planned load is what
  // alternates the admissions instead of piling them on shard 0.
  ASSERT_GE(shards.size(), 4u);
  EXPECT_EQ((std::vector<int>(shards.begin(), shards.begin() + 4)),
            (std::vector<int>{0, 1, 0, 1}));
  // 0.70 bronze watermark / 0.125 per session: five sessions per shard.
  EXPECT_EQ(shards.size(), 10u);
  // Bronze is full; gold still fits under its higher watermark.
  EXPECT_TRUE(acc.open(SessionParams{QosClass::kGold, 1.0, 8}).ok);
}

TEST(SessionAcceptorTest, SeesShardsAddedAfterConstruction) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  acct.note_busy_sample(0, 0.60);
  acct.note_busy_sample(1, 0.55);

  AdmissionPolicy pol;
  pol.cost_per_item = 0.01;
  SessionAcceptor acc(table, acct, pol);

  const SessionParams p{QosClass::kBronze, 5.0, 8};
  EXPECT_EQ(acc.decide(p).shard, 1);  // least loaded of the original pair

  // The group grows mid-churn. The regression this pins: the acceptor used
  // to snapshot the shard count at construction and would never consider
  // the new shard; decide() must re-resolve the live set on every call.
  const int added = group.add_shard();
  table.sync_topology();
  const Decision d = acc.decide(p);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.shard, added);  // unmeasured and unplanned: effective load 0
  const SessionAcceptor::OpenResult r = acc.open(p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.shard, added);
  EXPECT_DOUBLE_EQ(acc.planned_load(added), 0.05);

  // Retirement drops it from the candidate set just as promptly.
  table.retire_shard(added);
  group.retire_shard(added);
  EXPECT_EQ(acc.decide(p).shard, 1);
  EXPECT_EQ(table.live(), 0u);  // the force-close took the session with it
}

TEST(SessionAcceptorTest, RefusesWhenTheEngineHasNoSlotLeft) {
  shard::ShardGroup group(1, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  AdmissionPolicy pol;
  pol.max_per_shard = kSessionSlots + 1;  // let the engine be the limit
  SessionAcceptor acc(table, acct, pol);

  const SessionParams idle{QosClass::kGold, 0.0, 8};  // plans no load
  for (std::uint32_t i = 0; i < kSessionSlots; ++i) {
    ASSERT_TRUE(acc.open(idle).ok);
  }
  const SessionAcceptor::OpenResult r = acc.open(idle);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("no session slot"), std::string::npos) << r.reason;
  EXPECT_EQ(acc.rejected(), 1u);
  EXPECT_EQ(table.live(), kSessionSlots);
}

// ---------- the unified control surface --------------------------------------------

TEST(RealizationHandleTest, OneSurfaceOverSingleAndShardedRealizations) {
  // Single-runtime realization through the interface.
  {
    rt::Runtime rtm;
    CountingSource src{"src", 5};
    FreeRunningPump pump{"pump"};
    CollectorSink sink{"sink"};
    auto ch = src >> pump >> sink;
    Realization real(rtm, ch.pipeline());
    RealizationHandle& h = real;
    EXPECT_EQ(h.plan_info().sections.size(), 1u);
    EXPECT_FALSE(h.describe().empty());
    h.control(kEventStart);  // the generic spelling of start()
    rtm.run();
    EXPECT_EQ(sink.count(), 5u);
    EXPECT_FALSE(h.stats_report().empty());
    EXPECT_NE(h.metrics_snapshot().find("rt.dispatches"), nullptr);
  }
  // Sharded realization through the same interface.
  {
    CountingSource src{"src", 100};
    FreeRunningPump pump{"pump"};
    Buffer buf{"buf", 16};
    FreeRunningPump pump2{"pump2"};
    CollectorSink sink{"sink"};
    auto ch = src >> pump >> buf >> pump2 >> sink;
    shard::ShardGroup group(2);
    shard::ShardedRealization sr(group, ch.pipeline());
    RealizationHandle& h = sr;
    EXPECT_EQ(h.plan_info().sections.size(), 2u);
    EXPECT_FALSE(h.describe().empty());
    h.start();
    ASSERT_TRUE(sr.wait_finished(std::chrono::milliseconds(30000)));
    EXPECT_EQ(sink.count(), 100u);
    EXPECT_FALSE(h.stats_report().empty());
  }
}

// ---------- churn under real threads (TSan) ----------------------------------------

TEST(SessionTableLive, SurvivesConcurrentOpenCloseChurn) {
  shard::ShardGroup group(2);
  group.launch();
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&table, t] {
      std::vector<SessionId> held;
      for (int i = 0; i < kPerThread; ++i) {
        held.push_back(table.open_on((t + i) % 2,
                                     SessionParams{QosClass::kBronze, 200.0, 8}));
        if (held.size() >= 8) {  // close out of open order
          table.close(held.front());
          held.erase(held.begin());
        }
      }
      for (SessionId id : held) table.close(id);
    });
  }
  for (std::thread& th : churners) th.join();
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.realizations(), 2u);

  // The engines survived the churn and still pump for new sessions.
  const SessionId id =
      table.open_on(0, SessionParams{QosClass::kGold, 200.0, 8});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (table.items_of(id) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(table.items_of(id), 0u);
  table.close(id);
}

// ---------- the network front door -------------------------------------------------

/// call_control must run on a runtime thread; spawn a one-shot ULT and
/// drive the runtime until it completes (the remote_node pattern).
std::string ctl(rt::Runtime& rtm, net::SocketTransport& link,
                net::wire::ControlOp op, const std::string& text) {
  std::optional<std::string> out;
  std::exception_ptr error;
  bool done = false;
  const rt::ThreadId tmp = rtm.spawn(
      "test.rpc", rt::kPriorityControl,
      [&](rt::Runtime&, rt::Message) -> rt::CodeResult {
        try {
          out = link.call_control(op, text, rt::seconds(5));
        } catch (...) {
          error = std::current_exception();
        }
        done = true;
        return rt::CodeResult::kTerminate;
      });
  rtm.send(tmp, rt::Message{0, rt::MsgClass::kData});
  while (!done) rtm.run_until(rtm.now() + rt::milliseconds(2));
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

template <typename Pred>
bool drive_until(rt::Runtime& rtm, Pred done,
                 rt::Time budget = rt::seconds(10)) {
  const rt::Time deadline = rtm.now() + budget;
  while (!done()) {
    if (rtm.now() >= deadline) return false;
    rtm.run_until(rtm.now() + rt::milliseconds(2));
  }
  return true;
}

TEST(SessionFrontDoor, ManyPeersOpenCloseAndDieOverRealSockets) {
  shard::ShardGroup group(2);
  group.launch();
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);

  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};
  SessionAcceptor acc(table, acct);
  net::SocketConfig lcfg;
  lcfg.port = 0;
  acc.listen(rtm, io, lcfg);
  ASSERT_NE(acc.port(), 0);

  // Three peers at once — each gets its own adopted transport, nobody
  // queues behind the single-peer listen slot.
  std::vector<std::unique_ptr<net::SocketTransport>> clients;
  for (int i = 0; i < 3; ++i) {
    net::SocketConfig ccfg;
    ccfg.port = acc.port();
    clients.push_back(net::SocketTransport::connect(rtm, io, ccfg));
  }
  ASSERT_TRUE(drive_until(rtm, [&] { return acc.peers() == 3; }));

  // One open per peer, through control frames.
  std::vector<SessionId> ids;
  for (auto& c : clients) {
    const std::string reply =
        ctl(rtm, *c, net::wire::ControlOp::kSessionOpen,
            "gold\x1F" "50\x1F" "32");
    const std::size_t sep = reply.find('\x1F');
    ASSERT_NE(sep, std::string::npos) << reply;
    ids.push_back(static_cast<SessionId>(std::stoull(reply.substr(0, sep))));
    const int shard = std::stoi(reply.substr(sep + 1));
    EXPECT_EQ(shard, shard_of_session(ids.back()));
  }
  EXPECT_EQ(table.live(), 3u);
  EXPECT_EQ(acc.admitted(), 3u);
  ASSERT_TRUE(drive_until(rtm, [&] { return table.items_total() > 0; }));

  // Malformed and unsupported requests come back as error replies.
  EXPECT_THROW(ctl(rtm, *clients[0], net::wire::ControlOp::kSessionOpen,
                   "copper\x1F" "10\x1F" "8"),
               net::RemoteError);
  EXPECT_THROW(
      ctl(rtm, *clients[0], net::wire::ControlOp::kCreate, "nope"),
      net::RemoteError);

  // Peer 0 closes its own session.
  ctl(rtm, *clients[0], net::wire::ControlOp::kSessionClose,
      std::to_string(ids[0]));
  EXPECT_EQ(table.live(), 2u);

  // Peer 2 dies without closing: the sweep reaps its session.
  clients[2].reset();
  ASSERT_TRUE(drive_until(rtm, [&] {
    acc.sweep_peers();
    return acc.peers() == 2;
  }));
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table.live_on(shard_of_session(ids[1])), 1u);
}

}  // namespace
}  // namespace infopipe::session
