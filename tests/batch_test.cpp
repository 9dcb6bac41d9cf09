// Batched item path (PR 6): span-based push/pop/consume from pump to shard
// channel.
//
// The contract under test: batching (PumpSpec::max_batch > 1) is a pure
// throughput optimization — the flow a sink observes (sequence, payloads,
// EOS) is bit-identical to the per-item path, including under buffer drop
// policies, mid-batch end-of-stream, and a live cross-shard migration. The
// per-item reference is the same pipeline with every pump at max_batch = 1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/infopipes.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

/// A pump's max_batch: `n` on the batched run, 1 on the per-item one.
std::size_t batch_of(bool batched, std::size_t n) { return batched ? n : 1; }

// ---------- ShardChannel span primitives ------------------------------------

TEST(BatchChannel, SpanOpsReserveCapacityBoundedBursts) {
  shard::ShardChannel ch("x", 8);
  std::vector<Item> in(12);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Item::token();
    in[i].seq = i;
  }
  // One reservation claims min(space, span) slots — never the overflow
  // reserve.
  EXPECT_EQ(ch.try_push_span(ItemSpan(in.data(), in.size())), 8u);
  EXPECT_EQ(ch.depth(), 8u);
  EXPECT_EQ(ch.try_push_span(ItemSpan(in.data() + 8, 4)), 0u);

  std::vector<Item> out(16);
  EXPECT_EQ(ch.try_pop_span(ItemSpan(out.data(), out.size())), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].seq, i);
  EXPECT_EQ(ch.try_pop_span(ItemSpan(out.data(), out.size())), 0u);
  EXPECT_EQ(ch.depth(), 0u);
}

TEST(BatchChannel, EosDrainsQueuedItemsFirst) {
  shard::ShardChannel ch("x", 8);
  std::vector<Item> in(3);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Item::token();
    in[i].seq = i;
  }
  ASSERT_EQ(ch.try_push_span(ItemSpan(in.data(), in.size())), 3u);
  ch.set_eos();
  // The sticky flag never hides queued data: the burst drains first.
  std::vector<Item> out(8);
  EXPECT_EQ(ch.try_pop_span(ItemSpan(out.data(), out.size())), 3u);
  EXPECT_EQ(out[2].seq, 2u);
  EXPECT_EQ(ch.try_pop_span(ItemSpan(out.data(), out.size())), 0u);
  EXPECT_TRUE(ch.eos());
}

// ---------- single-shard batched flows --------------------------------------

struct FlowResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
};

TEST(Batch, BatchedAndPerItemFlowsAreBitIdentical) {
  auto run = [](bool batched) {
    rt::Runtime rtm;
    CountingSource src("src", 500);
    FreeRunningPump pump(
        PumpSpec{.name = "pump", .max_batch = batch_of(batched, 16)});
    Buffer buf("buf", 32);
    ClockedPump drain(PumpSpec{
        .name = "drain", .rate_hz = 500.0, .max_batch = batch_of(batched, 8)});
    CollectorSink sink("sink");
    auto ch = src >> pump >> buf >> drain >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    return FlowResult{sink.seqs(), sink.eos_seen()};
  };
  const FlowResult on = run(true);
  const FlowResult off = run(false);
  ASSERT_EQ(on.seqs.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) ASSERT_EQ(on.seqs[i], i);
  // max_batch = 1 is the whole per-item path, not a tuned-down batch.
  EXPECT_EQ(on.seqs, off.seqs);
  EXPECT_TRUE(on.eos);
  EXPECT_TRUE(off.eos);
}

TEST(Batch, DropOldestEvictsSpanPrefixBurstWise) {
  rt::Runtime rtm;
  CountingSource src("src", 64);
  // One 1 Hz fire moves the entire flow as a single 64-item span.
  ClockedPump fill(PumpSpec{.name = "fill", .rate_hz = 1.0, .max_batch = 64});
  Buffer buf("buf", 8, FullPolicy::kDropOldest, EmptyPolicy::kNil);
  ClockedPump drain("drain", 1000.0);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(500));
  real.shutdown();
  rtm.run();
  // kDropOldest keeps the newest `capacity` items of (queue ++ span): with
  // the burst alone exceeding capacity, the span's own 56-item PREFIX is
  // dropped and the tail 56..63 survives, in order.
  const std::vector<std::uint64_t> want{56, 57, 58, 59, 60, 61, 62, 63};
  EXPECT_EQ(sink.seqs(), want);
  EXPECT_EQ(buf.stats().drops, 56u);
}

TEST(Batch, EosArrivesOnlyAtBurstBoundaries) {
  rt::Runtime rtm;
  CountingSource src("src", 10);  // deliberately not a multiple of max_batch
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 64});
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  // The final short burst carries data only; EOS follows as its own
  // per-item push on the next fire (a span never mixes data and specials).
  ASSERT_EQ(sink.count(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(sink.seqs()[i], i);
  EXPECT_TRUE(sink.eos_seen());
}

// ---------- BatchFilter and the per-item adapter -----------------------------

/// Span-native filter: tags every data item's kind, whole bursts at a time.
class TagKind : public BatchFilter {
 public:
  TagKind(std::string name, int kind)
      : BatchFilter(std::move(name)), kind_(kind) {}

  [[nodiscard]] std::uint64_t bursts() const noexcept { return bursts_; }

 protected:
  void convert_span(ItemSpan xs) override {
    ++bursts_;
    for (Item& x : xs) {
      if (x.is_data()) x.kind = kind_;
    }
  }

 private:
  int kind_;
  std::uint64_t bursts_ = 0;
};

TEST(Batch, BatchFilterAndPerItemFilterComposeIdentically) {
  auto run = [](bool batched) {
    rt::Runtime rtm;
    CountingSource src("src", 300);
    FreeRunningPump pump(
        PumpSpec{.name = "pump", .max_batch = batch_of(batched, 32)});
    TagKind tag("tag", 7);  // span-native
    LambdaFunction bump("bump", [](Item x) {  // per-item, auto-adapted
      x.seq += 1000;
      return x;
    });
    CollectorSink sink("sink");
    auto ch = src >> pump >> tag >> bump >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    FlowResult r{sink.seqs(), sink.eos_seen()};
    for (const CollectorSink::Arrival& a : sink.arrivals()) {
      EXPECT_EQ(a.item.kind, 7);
    }
    return r;
  };
  const FlowResult on = run(true);
  const FlowResult off = run(false);
  ASSERT_EQ(on.seqs.size(), 300u);
  EXPECT_EQ(on.seqs.front(), 1000u);
  EXPECT_EQ(on.seqs, off.seqs);
  EXPECT_TRUE(on.eos);
  EXPECT_TRUE(off.eos);
}

// ---------- sharded lockstep: batching across a live migration ---------------

struct LockstepResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
  std::vector<shard::MigrationOutcome> outcomes;
};

/// Three sections over two manual shards, all pumps batched (max_batch = 8)
/// or all per-item (max_batch = 1).
/// When `migrate` is set, section 1 moves to the other shard at t = 0.5 s
/// and back at t = 1 s — mid-flow in both the batched and per-item runs, so
/// the quiesce lands between span bursts with items queued in the cut ring.
LockstepResult run_sharded(bool batched, bool migrate) {
  const std::size_t mb = batch_of(batched, 8);
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  constexpr std::uint64_t kN = 3000;
  CountingSource src("src", kN);
  ClockedPump p1(PumpSpec{.name = "p1", .rate_hz = 200.0, .max_batch = mb});
  Buffer b1("b1", 32);
  ClockedPump p2(PumpSpec{.name = "p2", .rate_hz = 200.0, .max_batch = mb});
  Buffer b2("b2", 32);
  ClockedPump p3(PumpSpec{.name = "p3", .rate_hz = 200.0, .max_batch = mb});
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.section_count(), 3u);

  LockstepResult r;
  const int home = sr.shard_of_section(1);
  const int away = 1 - home;

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(20);
       t += rt::milliseconds(100)) {
    group.step_until(t);
    if (migrate && t == rt::milliseconds(500)) {
      r.outcomes.push_back(sr.migrate_section(1, away));
      EXPECT_EQ(sr.shard_of_section(1), away);
    }
    if (migrate && t == rt::seconds(1)) {
      r.outcomes.push_back(sr.migrate_section(1, home));
      EXPECT_EQ(sr.shard_of_section(1), home);
    }
  }
  EXPECT_TRUE(sr.finished());
  r.seqs = sink.seqs();
  r.eos = sink.eos_seen();
  return r;
}

TEST(BatchLockstep, ShardedFlowBitIdenticalToPerItemAcrossMigration) {
  const LockstepResult on = run_sharded(true, true);
  const LockstepResult off = run_sharded(false, true);

  // Zero loss, zero duplication, order preserved, under live migration with
  // batched span traffic through the cut rings...
  ASSERT_EQ(on.seqs.size(), 3000u);
  for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_EQ(on.seqs[i], i) << i;
  // ...and the batched flow is bit-identical to the per-item flow.
  EXPECT_EQ(on.seqs, off.seqs);
  EXPECT_TRUE(on.eos);
  EXPECT_TRUE(off.eos);
  ASSERT_EQ(on.outcomes.size(), 2u);
  EXPECT_EQ(on.outcomes[0].cuts_created, on.outcomes[1].cuts_collapsed);
}

TEST(BatchLockstep, UndisturbedShardedFlowMatchesMigratedOne) {
  const LockstepResult plain = run_sharded(true, false);
  const LockstepResult moved = run_sharded(true, true);
  ASSERT_EQ(plain.seqs.size(), 3000u);
  EXPECT_EQ(plain.seqs, moved.seqs);
  EXPECT_TRUE(plain.eos);
  EXPECT_TRUE(moved.eos);
}

}  // namespace
}  // namespace infopipe
