// Pooled, NUMA-aware item memory path (ip_mem).
//
// Four layers under test here: the Pool itself (free-list hit/miss, owner
// recycling, the bounded foreign-return stash, adoption), the Item facade
// over both payload representations, the NUMA placement decisions (pools and
// channel rings follow the consumer shard of an injected topology), and the
// end-to-end guarantees — lockstep runs are bit-identical whether the same
// value travels inline or in a pooled block, INCLUDING across a live
// migration, and a multi-shard flow under live rebalancing recycles blocks
// across shards without races (the TSan job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/infopipes.hpp"
#include "mem/pool.hpp"
#include "shard/sharded_realization.hpp"
#include "shard/topology.hpp"

namespace infopipe {
namespace {

using namespace std::chrono_literals;

/// A uint64_t value boxed past Item::kInlineCapacity, so it takes the
/// pooled representation where a bare uint64_t would go inline.
struct Boxed {
  std::uint64_t v;
  unsigned char pad[Item::kInlineCapacity];
};
static_assert(sizeof(Boxed) > Item::kInlineCapacity);

/// The uint64_t an item carries, bare (inline) or boxed (pooled).
const std::uint64_t* value_of(const Item& x) {
  if (const Boxed* b = x.payload<Boxed>()) return &b->v;
  return x.payload<std::uint64_t>();
}

/// CountingSource's shape, but every item carries a payload — inline or,
/// with `boxed`, pooled; tokens would never touch the allocator.
class PayloadSource : public PassiveSource {
 public:
  PayloadSource(std::string name, std::uint64_t count, bool boxed)
      : PassiveSource(std::move(name)), count_(count), boxed_(boxed) {}

 protected:
  Item generate() override {
    if (next_ >= count_) return Item::eos();
    Item x = boxed_ ? Item::of(Boxed{next_, {}}) : Item::of(next_);
    x.seq = next_++;
    x.timestamp = pipeline_now();
    return x;
  }

 private:
  std::uint64_t count_;
  bool boxed_;
  std::uint64_t next_ = 0;
};

// ============================ Pool ==========================================

TEST(MemPool, HitMissRecycleOnOwnerThread) {
  mem::Pool p("t");
  mem::PoolScope scope(&p);

  {
    mem::PayloadRef r = mem::make_typed<int>(42);
    ASSERT_NE(r.get_if<int>(), nullptr);
    EXPECT_EQ(*r.get_if<int>(), 42);
    EXPECT_EQ(r.use_count(), 1);
  }
  mem::Pool::Stats s = p.stats();
  EXPECT_EQ(s.misses, 1u);  // first block carved from a slab
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.recycled, 1u);  // released on the owner thread
  EXPECT_GT(s.slab_bytes, 0u);

  {
    // Same size class: the recycled block is served from the free list.
    mem::PayloadRef r = mem::make_typed<int>(7);
    EXPECT_EQ(*r.get_if<int>(), 7);
  }
  s = p.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.recycled, 2u);
}

TEST(MemPool, ForeignReleaseReturnsThroughOwnerStash) {
  mem::Pool owner("owner");
  mem::Pool other("other");

  mem::PayloadRef r;
  {
    mem::PoolScope scope(&owner);
    r = mem::make_typed<int>(1);
  }
  {
    // Last reference dies while ANOTHER pool is current: the block goes to
    // the owner's lock-free return stash, not the releasing pool.
    mem::PoolScope scope(&other);
    r.reset();
  }
  EXPECT_EQ(owner.stats().foreign_returned, 1u);
  EXPECT_EQ(owner.stats().recycled, 0u);
  EXPECT_EQ(other.stats().foreign_adopted, 0u);

  {
    // The owner drains its stash on the next free-list miss: a hit.
    mem::PoolScope scope(&owner);
    mem::PayloadRef r2 = mem::make_typed<int>(2);
    EXPECT_EQ(*r2.get_if<int>(), 2);
  }
  EXPECT_EQ(owner.stats().hits, 1u);
  EXPECT_EQ(owner.stats().misses, 1u);
}

TEST(MemPool, DetachedOwnerMakesForeignReleasesAdopt) {
  mem::Pool owner("owner");
  mem::Pool other("other");

  mem::PayloadRef r;
  {
    mem::PoolScope scope(&owner);
    r = mem::make_typed<int>(5);
  }
  owner.detach();  // the owning runtime died; the stash would never drain
  {
    mem::PoolScope scope(&other);
    r.reset();
  }
  // The block changed home: the releasing thread's pool adopted it and will
  // serve it from its own free list.
  EXPECT_EQ(owner.stats().foreign_returned, 0u);
  EXPECT_EQ(other.stats().foreign_adopted, 1u);
  {
    mem::PoolScope scope(&other);
    mem::PayloadRef r2 = mem::make_typed<int>(6);
    EXPECT_EQ(*r2.get_if<int>(), 6);
  }
  EXPECT_EQ(other.stats().hits, 1u);
  EXPECT_EQ(other.stats().misses, 0u);
}

TEST(MemPool, OversizePayloadsBypassThePool) {
  mem::Pool p("t");
  mem::PoolScope scope(&p);
  const std::vector<std::uint8_t> big(10000, 0xAB);
  {
    mem::PayloadRef r = mem::make_bytes(big.data(), big.size());
    ASSERT_TRUE(r.is_bytes());
    EXPECT_EQ(r.size(), big.size());
    EXPECT_EQ(r.bytes()[9999], 0xAB);
  }
  const mem::Pool::Stats s = p.stats();
  EXPECT_EQ(s.oversize, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.recycled, 0u);  // freed outright, never parked
}

// ============================ Item facade ===================================

TEST(MemItem, PooledCopySharesMoveSteals) {
  mem::Pool p("t");
  mem::PoolScope scope(&p);

  Item a = Item::of<std::string>("payload");
  EXPECT_TRUE(a.pooled());
  EXPECT_EQ(a.use_count(), 1);

  Item b = a;  // copy: one refcount bump, no allocation
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(a.payload<std::string>(), b.payload<std::string>());

  Item c = std::move(b);  // move: steals the reference
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(*c.payload<std::string>(), "payload");

  const mem::Pool::Stats s = p.stats();
  EXPECT_EQ(s.hits + s.misses, 1u);  // ONE allocation for all three items
}

TEST(MemItem, BytesRoundTripInBothRepresentations) {
  const std::uint8_t wire[] = {1, 2, 3, 4, 5};
  {
    // Inline (a 5-byte payload): lives inside the Item.
    const Item x = Item::of_bytes(wire, sizeof(wire));
    EXPECT_TRUE(x.inlined());
    EXPECT_FALSE(x.pooled());
    ASSERT_TRUE(x.has_bytes());
    EXPECT_EQ(x.bytes_size(), sizeof(wire));
    EXPECT_EQ(x.bytes_data()[4], 5);
    EXPECT_EQ(x.size_bytes, sizeof(wire));
    // Copies own their bytes; mutating via metadata never aliases.
    Item y = x;
    EXPECT_EQ(y.bytes_data()[0], 1);
    EXPECT_NE(y.bytes_data(), x.bytes_data());
  }
  // The size alone picks the representation: kInlineCapacity bytes still
  // fit inside the Item, one more takes a pooled block.
  constexpr std::size_t kCap = Item::kInlineCapacity;
  for (const std::size_t n : {kCap, kCap + 1}) {
    std::vector<std::uint8_t> big(n);
    std::iota(big.begin(), big.end(), std::uint8_t{1});
    const Item x = Item::of_bytes(big.data(), big.size());
    const bool fits = n <= kCap;
    EXPECT_EQ(x.inlined(), fits) << n;
    EXPECT_EQ(x.pooled(), !fits) << n;
    ASSERT_TRUE(x.has_bytes());
    EXPECT_EQ(x.bytes_size(), n);
    EXPECT_EQ(x.size_bytes, n);
    EXPECT_TRUE(std::equal(big.begin(), big.end(), x.bytes_data())) << n;
    const Item y = x;
    EXPECT_EQ(y.bytes_size(), n);
    EXPECT_EQ(y.bytes_data()[n - 1], big[n - 1]);
    EXPECT_EQ(y.use_count(), fits ? 1 : 2) << n;
  }
}

// ============================ NUMA placement ================================

TEST(MemNuma, ChannelRingPlacementFollowsRequests) {
  shard::ShardChannel ch("x", 4, FullPolicy::kBlock, EmptyPolicy::kBlock,
                         /*numa_node=*/1);
  EXPECT_EQ(ch.ring_node(), 1);
  ch.place_ring(0);  // empty ring: re-placement allowed
  EXPECT_EQ(ch.ring_node(), 0);

  Item x = Item::token();
  ASSERT_TRUE(ch.try_push(x));
  ch.place_ring(1);  // non-empty: must keep the old storage
  EXPECT_EQ(ch.ring_node(), 0);
  (void)ch.try_pop();
  ch.place_ring(1);
  EXPECT_EQ(ch.ring_node(), 1);
}

TEST(MemNuma, PoolsAndRingsLandOnConsumerNodeUnderInjectedTopology) {
  // Synthetic 2-node box: cpu0 -> node0, cpu1 -> node1. Shard i pins to
  // core i, so shard0 is a node-0 shard and shard1 a node-1 shard — however
  // many cores the machine running this test really has.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  opt.topology = shard::Topology({0, 1});
  shard::ShardGroup group(2, std::move(opt));

  EXPECT_EQ(group.node_of_shard(0), 0);
  EXPECT_EQ(group.node_of_shard(1), 1);
  // Each shard's payload pool carves slabs on its own node.
  EXPECT_EQ(group.runtime(0).pool().numa_node(), 0);
  EXPECT_EQ(group.runtime(1).pool().numa_node(), 1);

  PayloadSource src("src", 1000000, /*boxed=*/false);
  ClockedPump fill("fill", 300.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 100.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());

  shard::ShardChannel* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  // The cut's ring storage was requested on the CONSUMER shard's node.
  EXPECT_EQ(chan->ring_node(), group.node_of_shard(chan->to_shard()));

  // The numa_node gauge is published per shard.
  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  const obs::MetricValue* g0 = ms.find("shard0.mem.pool.numa_node");
  const obs::MetricValue* g1 = ms.find("shard1.mem.pool.numa_node");
  ASSERT_NE(g0, nullptr);
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g0->value, 0.0);
  EXPECT_EQ(g1->value, 1.0);
}

TEST(MemNuma, RingFollowsConsumerAcrossMigrationWhenEmpty) {
  // Three shards on a synthetic 2-node box: shards 0 and 1 on node 0,
  // shard 2 on node 1. When the consumer section migrates 1 -> 2 with the
  // ring drained, the persisting channel re-places its storage on node 1.
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  opt.topology = shard::Topology({0, 0, 1});
  shard::ShardGroup group(3, std::move(opt));

  // Finite: the flow drains, the ring empties.
  PayloadSource src("src", 50, /*boxed=*/false);
  ClockedPump fill("fill", 500.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 500.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());

  shard::ShardChannel* chan = sr.find_channel("buf");
  ASSERT_NE(chan, nullptr);
  const int old_cons = chan->to_shard();
  ASSERT_NE(old_cons, 2);
  std::size_t cons_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "drain") cons_sec = i;
  }
  ASSERT_LT(cons_sec, sr.section_count());

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  ASSERT_TRUE(sr.finished());  // all 50 items delivered; ring empty
  ASSERT_EQ(chan->depth(), 0u);

  (void)sr.migrate_section(cons_sec, 2);
  shard::ShardChannel* live = sr.find_live_channel("buf");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->to_shard(), 2);
  EXPECT_EQ(live->ring_node(), 1);  // storage followed the consumer's node

  sr.shutdown();
  group.step_until(rt::seconds(2));
}

// ============================ lockstep equivalence ==========================

/// Everything flow-visible one deterministic run produces; inline and
/// pooled runs must agree on every field, bit for bit.
struct LockstepResult {
  std::vector<std::uint64_t> seqs;
  std::uint64_t payload_sum = 0;
  std::uint64_t items_moved = 0;
  bool eos = false;
};

/// `pooled` carries each value boxed (a pool block); otherwise the bare
/// uint64_t rides inline.
LockstepResult run_lockstep_scenario(bool pooled) {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  PayloadSource src("src", 1000000, pooled);
  ClockedPump fill("fill", 400.0);
  Buffer buf("buf", 64);
  ClockedPump drain("drain", 200.0);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());
  shard::ShardChannel* chan = sr.find_channel("buf");
  EXPECT_NE(chan, nullptr);
  const int prod = chan->from_shard();
  const int cons = chan->to_shard();
  std::size_t cons_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "drain") cons_sec = i;
  }

  LockstepResult r;
  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(1);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  // Live migration mid-flow: collapse the cut (consumer joins the producer
  // shard, queued ring items fold back into the buffer) ...
  r.items_moved += sr.migrate_section(cons_sec, prod).items_moved;
  for (rt::Time t = rt::seconds(1); t <= rt::seconds(2);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  // ... and re-split it (fresh channel, buffer contents carried over).
  r.items_moved += sr.migrate_section(cons_sec, cons).items_moved;
  for (rt::Time t = rt::seconds(2); t <= rt::seconds(3);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  sr.shutdown();
  group.step_until(rt::seconds(4));

  r.seqs = sink.seqs();
  for (const CollectorSink::Arrival& a : sink.arrivals()) {
    const std::uint64_t* v = value_of(a.item);
    EXPECT_NE(v, nullptr);
    EXPECT_EQ(a.item.pooled(), pooled);  // the representation under test
    EXPECT_EQ(a.item.inlined(), !pooled);
    if (v != nullptr) r.payload_sum += *v;
  }
  r.eos = sink.eos_seen();
  return r;
}

TEST(MemLockstep, PooledAndInlineRunsAreBitIdenticalAcrossMigration) {
  const LockstepResult pooled = run_lockstep_scenario(true);
  const LockstepResult inlined = run_lockstep_scenario(false);
  // The flow delivered real work in both runs...
  EXPECT_GT(pooled.seqs.size(), 100u);
  EXPECT_GT(pooled.items_moved, 0u);
  // ... and the representation is a pure storage choice: identical delivery
  // order, identical payloads, identical migration behaviour.
  EXPECT_EQ(pooled.seqs, inlined.seqs);
  EXPECT_EQ(pooled.payload_sum, inlined.payload_sum);
  EXPECT_EQ(pooled.items_moved, inlined.items_moved);
  EXPECT_EQ(pooled.eos, inlined.eos);
}

// ============================ cross-shard recycling stress ==================

TEST(MemStress, RecyclingAcrossShardsUnderLiveRebalancing) {
  // Real kernel threads, real clocks, three shards, two cuts — and the
  // middle section migrating around the group while payload blocks stream
  // through. TSan runs this: the pooled release path (owner free list vs
  // foreign stash vs adoption) must be race-free under live rebalancing.
  shard::ShardGroup group(3);

  PayloadSource src("src", 1000000, /*boxed=*/true);  // exercise the pool
  ClockedPump fill("fill", 3000.0);
  Buffer b1("b1", 128);
  ClockedPump mid("mid", 3000.0);
  Buffer b2("b2", 128);
  ClockedPump drain("drain", 3000.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> b1 >> mid >> b2 >> drain >> sink;
  shard::ShardedRealization sr(group, ch.pipeline());

  std::size_t mid_sec = sr.section_count();
  for (std::size_t i = 0; i < sr.section_count(); ++i) {
    if (sr.section_name(i) == "mid") mid_sec = i;
  }
  ASSERT_LT(mid_sec, sr.section_count());
  ASSERT_TRUE(sr.section_migratable(mid_sec));

  sr.start();
  // Bounce the middle section across all three shards while items flow:
  // cuts collapse, re-create and rebind under load.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(100ms);
    const int cur = sr.shard_of_section(mid_sec);
    try {
      (void)sr.migrate_section(mid_sec, (cur + 1) % group.size(),
                               std::chrono::milliseconds(10000));
    } catch (const rt::RuntimeError&) {
      // A quiesce timeout under heavy sanitizer load is not what this test
      // is about; the Migration destructor restarted the flow.
    }
  }
  std::this_thread::sleep_for(200ms);
  sr.shutdown();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();  // joins host threads: direct pool reads below are race-free

  EXPECT_GT(sink.count(), 100u);
  std::uint64_t hits = 0, recycled = 0, cross_shard = 0;
  for (int s = 0; s < group.size(); ++s) {
    const mem::Pool::Stats st = group.runtime(s).pool().stats();
    hits += st.hits;
    recycled += st.recycled;
    cross_shard += st.foreign_returned + st.foreign_adopted;
  }
  // Blocks were recycled (the pool actually pooled) and some of that
  // recycling crossed shards (payloads died on a different shard than the
  // one that allocated them).
  EXPECT_GT(hits, 0u);
  EXPECT_GT(recycled + cross_shard, 0u);
  EXPECT_GT(cross_shard, 0u);
}

}  // namespace
}  // namespace infopipe
