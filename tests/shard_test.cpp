// ip_shard tests: the buffer ring across kernel threads, the shard group,
// and whole pipelines realized across kernel threads.
//
// Everything here runs under RealClock (shards need a common wall clock) and
// is written to be TSan-clean: live shard state is only read through
// ShardGroup::run_on, and direct reads happen only after group.stop() has
// joined the host threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/infopipes.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

using namespace std::chrono_literals;

// --- the raw ring -----------------------------------------------------------

TEST(BufferRing, SpscRingAcrossKernelThreads) {
  // Bound to two runtimes, as a cut is: the seq_cst handshake path. The
  // runtimes never run; the ends are driven by two plain kernel threads.
  rt::Runtime r0;
  rt::Runtime r1;
  Buffer ch("ring", 8);
  ch.bind_producer(r0, 0);
  ch.bind_consumer(r1, 1);
  ASSERT_TRUE(ch.two_runtimes());
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&ch] {
    for (std::uint64_t i = 0; i < kN;) {
      Item x = Item::token();
      x.seq = i;
      if (ch.try_put(x)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
    ch.set_eos();
  });
  std::uint64_t expect = 0;
  bool ordered = true;
  for (;;) {
    if (std::optional<Item> x = ch.try_take()) {
      ordered = ordered && x->seq == expect;
      ++expect;
    } else if (ch.eos() && expect == kN) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expect, kN);
  const BufferStats s = ch.flow_stats();
  EXPECT_EQ(s.puts, kN);
  EXPECT_EQ(s.takes, kN);
  EXPECT_EQ(s.fill, 0u);
  EXPECT_GE(s.max_fill, 1u);
}

TEST(BufferRing, CapacityBoundsAndStoppedFlowReserve) {
  // The reserve is reached the way the flow reaches it: a burst in flight
  // when its section stops goes past capacity instead of being lost. One
  // runtime on the default VirtualClock, so every depth is exact.
  rt::Runtime rtm;
  CountingSource src("src", 100);
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 3});
  Buffer ch("small", 2);
  ClockedPump drain("drain", 1.0);
  CountingSink sink("sink");
  auto flow = src >> pump >> ch >> drain >> sink;
  Realization real(rtm, flow.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(100));
  ASSERT_EQ(ch.fill(), 2u);  // the pump blocked mid-burst
  Item c = Item::token();
  EXPECT_FALSE(ch.try_put(c));  // at capacity
  real.stop();
  rtm.run_until(rt::milliseconds(200));
  const std::size_t depth = ch.fill();
  // The two queued items plus the whole 3-item burst in flight at the stop
  // (the drain's t=0 take let the first burst finish).
  EXPECT_EQ(depth, 5u);
  EXPECT_TRUE(ch.try_take().has_value());
  EXPECT_EQ(ch.fill(), depth - 1);
  Item d = Item::token();
  EXPECT_FALSE(ch.try_put(d));  // still >= capacity
  real.shutdown();
  rtm.run();
}

// --- the group --------------------------------------------------------------

TEST(ShardGroup, RunOnExecutesOnShardAndPropagatesErrors) {
  shard::ShardGroup group(2);
  EXPECT_THROW(group.run_on(0, [] {}), rt::RuntimeError);  // not launched
  group.launch();
  std::thread::id seen0;
  std::thread::id seen1;
  group.run_on(0, [&seen0] { seen0 = std::this_thread::get_id(); });
  group.run_on(1, [&seen1] { seen1 = std::this_thread::get_id(); });
  EXPECT_NE(seen0, seen1);
  EXPECT_NE(seen0, std::this_thread::get_id());
  const int v = group.call_on(1, [] { return 41 + 1; });
  EXPECT_EQ(v, 42);
  EXPECT_THROW(group.run_on(0, [] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  group.stop();
  group.stop();  // idempotent
}

TEST(ShardGroup, MetricsSnapshotPrefixesShards) {
  shard::ShardGroup group(2);
  group.launch();
  group.run_on(1, [&group] {
    group.runtime(1).metrics().counter("test.pings").inc(3);
  });
  const obs::MetricsSnapshot snap = group.metrics_snapshot();
  EXPECT_NE(snap.find("shard0.rt.dispatches"), nullptr);
  EXPECT_NE(snap.find("shard1.rt.dispatches"), nullptr);
  const obs::MetricValue* v = snap.find("shard1.test.pings");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 3u);
  EXPECT_EQ(snap.find("shard0.test.pings"), nullptr);
  group.stop();
}

// --- sharded pipelines ------------------------------------------------------

/// Sink that also records broadcast control events it saw.
class EventRecordingSink : public PassiveSink {
 public:
  using PassiveSink::PassiveSink;
  std::vector<std::uint64_t> seqs;
  std::vector<int> events;
  bool eos = false;

  void handle_event(const Event& e) override { events.push_back(e.type); }

 protected:
  void consume(Item x) override { seqs.push_back(x.seq); }
  void on_eos() override { eos = true; }
};

/// Function stage that broadcasts a user event when a chosen seq passes by.
class BroadcastAtSeq : public FunctionComponent {
 public:
  BroadcastAtSeq(std::string name, std::uint64_t at, int event_type)
      : FunctionComponent(std::move(name)), at_(at), type_(event_type) {}

 protected:
  Item convert(Item x) override {
    if (x.seq == at_) broadcast(Event{type_});
    return x;
  }

 private:
  std::uint64_t at_;
  int type_;
};

TEST(ShardedRealization, TwoShardsPreserveOrderCountAndEos) {
  constexpr std::uint64_t kN = 5000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.channel_count(), 1u);
  EXPECT_EQ(sr.channel(0).from_shard() == sr.channel(0).to_shard(), false);
  EXPECT_EQ(&sr.channel(0), &buf);  // the cut is the buffer itself

  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));

  const StatsSnapshot stats = sr.stats_snapshot();
  const ChannelStats* cs = stats.channel("buf");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->flow.puts, kN);
  EXPECT_EQ(cs->flow.takes, kN);
  EXPECT_EQ(cs->flow.fill, 0u);
  EXPECT_EQ(cs->flow.capacity, 16u);

  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  const std::string chan_row =
      "shard" + std::to_string(sr.channel(0).to_shard()) + ".chan.buf.takes";
  const obs::MetricValue* row = ms.find(chan_row);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, kN);

  group.stop();  // joins host threads: direct reads below are race-free
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, FourShardChainDeliversEverythingInOrder) {
  constexpr std::uint64_t kN = 2000;
  CountingSource src{"src", kN};
  FreeRunningPump p1{"p1"};
  Buffer b1{"b1", 8};
  FreeRunningPump p2{"p2"};
  Buffer b2{"b2", 8};
  FreeRunningPump p3{"p3"};
  Buffer b3{"b3", 8};
  FreeRunningPump p4{"p4"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> b3 >> p4 >> sink;

  shard::ShardGroup group(4);
  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.channel_count(), 3u);
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, SingleShardGroupRunsWithoutCuts) {
  constexpr std::uint64_t kN = 1000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(1);
  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.channel_count(), 0u);
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  EXPECT_EQ(sink.seqs.size(), kN);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, BackpressureStallsProducerNotItems) {
  constexpr std::uint64_t kN = 3000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump", rt::kPriorityData};
  Buffer buf{"buf", 2};  // tiny channel: the producer must outrun it
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  const StatsSnapshot stats = sr.stats_snapshot();
  const ChannelStats* cs = stats.channel("buf");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->flow.takes, kN);
  group.stop();
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
}

TEST(ShardedRealization, BroadcastFromOneShardReachesTheOther) {
  constexpr std::uint64_t kN = 500;
  const int kPing = kEventUser + 7;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  BroadcastAtSeq probe{"probe", 5, kPing};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> probe >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  std::atomic<int> listener_pings{0};
  sr.set_event_listener([&listener_pings, kPing](const Event& e) {
    if (e.type == kPing) listener_pings.fetch_add(1);
  });
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  // The probe (upstream shard) broadcast once; the sink lives on the other
  // shard and must still have seen it.
  EXPECT_EQ(std::count(sink.events.begin(), sink.events.end(), kPing), 1);
  EXPECT_EQ(listener_pings.load(), 1);
  EXPECT_EQ(sink.seqs.size(), kN);
}

TEST(ShardedRealization, StopAndRestartLosesNothing) {
  constexpr std::uint64_t kN = 20000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 8};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  std::this_thread::sleep_for(5ms);
  sr.stop();
  // Drivers acknowledge the stop at their next dispatch point.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!sr.finished() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(sr.finished());
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  // Every item exactly once, in order — including any item that was in
  // flight into the channel when the stop hit (the overflow-reserve stash).
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(BufferRing, CutStoppedFlowReserveIsBoundedAndWaits) {
  // The same stop on a buffer cut across two shards: the stopped burst
  // fills the reserve to capacity + 4 and the producer then waits for the
  // consumer instead of growing the ring under it. Nothing is lost.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));
  constexpr std::uint64_t kN = 40;
  CountingSource src("src", kN);
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 16});
  Buffer ch("small", 2);
  ClockedPump drain("drain", 1.0);
  EventRecordingSink sink("sink");
  auto flow = src >> pump >> ch >> drain >> sink;
  shard::ShardedRealization sr(group, flow.pipeline());
  ASSERT_TRUE(ch.two_runtimes());
  sr.start();
  group.step_until(rt::milliseconds(100));
  ASSERT_EQ(ch.fill(), 2u);  // the pump blocked mid-burst
  const std::uint64_t blocks = ch.stats().put_blocks;
  sr.stop();
  group.step_until(rt::milliseconds(200));
  EXPECT_EQ(ch.fill(), ch.capacity() + 4);  // the reserve, and no more
  EXPECT_EQ(ch.stats().put_blocks, blocks + 1);  // then the producer waits
  group.step_until(rt::seconds(2));
  EXPECT_EQ(ch.fill(), ch.capacity() + 4);
  sr.start();
  // The restart is dispatched at the next step, so step before polling.
  for (rt::Time t = rt::seconds(3); t <= rt::seconds(120);
       t += rt::seconds(1)) {
    group.step_until(t);
    EXPECT_LE(ch.fill(), ch.capacity() + 4);
    if (sr.finished()) break;
  }
  ASSERT_TRUE(sr.finished());
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

/// FLUSH reaches a buffer wherever its ends run: the consumer end discards
/// the queue, counts every item as a drop and wakes the blocked producer,
/// which refills the buffer at once.
void expect_flush_drops_queue(int shards) {
  SCOPED_TRACE(shards);
  CountingSource src{"src", 1000000};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  ClockedPump drain{"drain", 2.0};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> drain >> sink;

  shard::ShardGroup group(shards);
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.channel_count(), shards == 1 ? 0u : 1u);
  sr.start();
  const auto until = [](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    return done();
  };
  // Buffer counters and fill are atomics: readable while the shards run.
  ASSERT_TRUE(until([&buf] { return buf.fill() == 16; }));
  const std::uint64_t puts = buf.stats().puts;
  sr.post_event(Event{kEventFlush});
  EXPECT_TRUE(until([&buf] { return buf.stats().drops >= 15; }));
  EXPECT_LE(buf.stats().drops, 16u);
  EXPECT_TRUE(until([&buf, puts] { return buf.stats().puts >= puts + 15; }));
  sr.shutdown();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
}

TEST(ShardedRealization, FlushReachesTheBufferOnOneShardOrTwo) {
  expect_flush_drops_queue(1);
  expect_flush_drops_queue(2);
}

TEST(ShardedRealization, ShutdownMidFlowTearsDownCleanly) {
  CountingSource src{"src", 1000000};  // would run for a long time
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 4};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  {
    shard::ShardedRealization sr(group, ch.pipeline());
    sr.start();
    std::this_thread::sleep_for(5ms);
    sr.shutdown();  // unwinds threads, including any blocked in the channel
    // The destructor tears down while the group still runs (run_on path).
  }
  group.stop();
  EXPECT_LT(sink.seqs.size(), 1000000u);
}

TEST(ShardedRealization, DescribeNamesShardsAndChannels) {
  CountingSource src{"src", 10};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  const std::string d = sr.describe();
  EXPECT_NE(d.find("sharded over 2 shards"), std::string::npos);
  EXPECT_NE(d.find("channel 'buf'"), std::string::npos);
  EXPECT_NE(d.find("shard 0:"), std::string::npos);
  EXPECT_NE(d.find("shard 1:"), std::string::npos);
  group.stop();
}

}  // namespace
}  // namespace infopipe
