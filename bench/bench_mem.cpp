// ip_mem: allocator traffic of the item path, pooled vs inline.
//
// Two angles on the same question — what does one data item cost the
// general-purpose allocator?
//
//   * a global operator new/delete counter measures REAL allocator calls
//     during the timed region (both representations pay the same harness
//     overhead, so the per-item delta is the item path's own cost);
//   * the pool's hit/miss metrics give the pooled path's exact answer
//     (a miss is the only acquire that touches a slab or the heap).
//
// Three workloads: a bare make/destroy loop (allocator cost in isolation),
// a single-runtime pumped flow, and a 2-shard flow whose payloads cross a
// ShardChannel cut — the case the consumer-side recycling protocol exists
// for. Each runs per representation (`mode`: 1 = pooled block,
// 2 = inline-in-Item); the payload's size picks it — a bare uint64_t rides
// inline, the same value boxed past Item::kInlineCapacity takes a pool
// block. The batched rows (BM_CrossShardFlowBatched) re-run the cut flow
// with span-moving pumps, max_batch 32 vs 1.
//
// On a 1-core host the cross-shard numbers measure overhead, not
// parallelism — record the host's core count next to archived results
// (see BENCH_mem.json).
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/infopipes.hpp"
#include "mem/pool.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

// ---------------------------------------------------------------------------
// Global allocator call counter. Counts every operator new in the process —
// harness, strings, rings — which is exactly why the benches report per-item
// DELTAS between otherwise identical pooled and inline runs.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace infopipe;

constexpr std::uint64_t kItems = 20000;

/// `mode` argument values.
constexpr int kPooled = 1;
constexpr int kInline = 2;

/// A uint64_t boxed past Item::kInlineCapacity: takes a pool block.
struct Boxed {
  std::uint64_t v;
  unsigned char pad[Item::kInlineCapacity];
};
static_assert(sizeof(Boxed) > Item::kInlineCapacity);

Item make_payload(bool pooled, std::uint64_t v) {
  return pooled ? Item::of(Boxed{v, {}}) : Item::of(v);
}

/// CountingSource's shape but with a real (pooled or inline) payload per
/// item — tokens never touch the allocator, so they cannot measure it.
class PayloadSource : public PassiveSource {
 public:
  PayloadSource(std::string name, std::uint64_t count, bool pooled)
      : PassiveSource(std::move(name)), count_(count), pooled_(pooled) {}

 protected:
  Item generate() override {
    if (next_ >= count_) return Item::eos();
    Item x = make_payload(pooled_, next_);
    x.seq = next_++;
    return x;
  }

 private:
  std::uint64_t count_;
  bool pooled_;
  std::uint64_t next_ = 0;
};

void report(benchmark::State& state, std::uint64_t items,
            std::uint64_t allocs, const mem::Pool::Stats* pool) {
  state.SetItemsProcessed(state.items_processed() +
                          static_cast<std::int64_t>(items));
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(items));
  if (pool != nullptr) {
    const double acquires =
        static_cast<double>(pool->hits + pool->misses);
    state.counters["pool_hit_rate"] = benchmark::Counter(
        acquires == 0.0 ? 0.0 : static_cast<double>(pool->hits) / acquires);
    state.counters["pool_misses_per_item"] = benchmark::Counter(
        static_cast<double>(pool->misses) / static_cast<double>(items));
  }
}

// ---------------------------------------------------------------------------
// Bare item make/destroy: the allocator cost of the representation alone.
// Steady state: the pooled path recycles one block forever and the inline
// path never leaves the Item (0 allocator calls per item either way).

void BM_ItemMakeDestroy(benchmark::State& state) {
  const bool pooled = state.range(0) == kPooled;
  mem::Pool pool("bench");
  mem::PoolScope scope(&pool);

  std::uint64_t items = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Item x = make_payload(pooled, items);
    benchmark::DoNotOptimize(x);
    ++items;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  const mem::Pool::Stats s = pool.stats();
  report(state, items, allocs, pooled ? &s : nullptr);
}
// mode: 1 = pooled block, 2 = inline-in-Item.
BENCHMARK(BM_ItemMakeDestroy)
    ->DenseRange(kPooled, kInline)
    ->ArgName("mode")
    ->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------------------------
// Single-runtime flow: source -> pump -> buffer -> pump -> sink, payloads
// allocated by the first section's pump thread and released by the sink on
// the same runtime — the pure owner-recycling path.

struct PumpedChain {
  PayloadSource src;
  FreeRunningPump p1;
  Buffer buf{"buf", 64};
  FreeRunningPump p2;
  CountingSink sink{"sink"};
  Pipeline pipe;

  explicit PumpedChain(bool pooled, std::size_t max_batch = 1)
      : src("src", kItems, pooled),
        p1(PumpSpec{.name = "p1", .max_batch = max_batch}),
        p2(PumpSpec{.name = "p2", .max_batch = max_batch}) {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, buf, 0);
    pipe.connect(buf, 0, p2, 0);
    pipe.connect(p2, 0, sink, 0);
  }
};

void BM_SingleRuntimeFlow(benchmark::State& state) {
  const bool pooled = state.range(0) == kPooled;
  for (auto _ : state) {
    state.PauseTiming();
    PumpedChain c(pooled);
    rt::Runtime rtm;
    Realization real(rtm, c.pipe);
    real.start();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    if (c.sink.count() != kItems) {
      state.SkipWithError("flow lost items");
      return;
    }
    const mem::Pool::Stats s = rtm.pool().stats();
    report(state, kItems, allocs, pooled ? &s : nullptr);
    obsbench::capture(rtm, pooled ? "BM_SingleRuntimeFlow/pooled"
                                  : "BM_SingleRuntimeFlow/inline");
    state.ResumeTiming();
  }
}
// mode: 1 = pooled block, 2 = inline-in-Item.
BENCHMARK(BM_SingleRuntimeFlow)
    ->DenseRange(kPooled, kInline)
    ->ArgName("mode")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cross-shard flow: the same chain cut at the buffer onto 2 shards, so
// every payload is allocated on the producer shard and dies on the consumer
// shard — blocks come home through the foreign-return stash / adoption
// path, and the pooled run should STILL be allocator-quiet per item.

void BM_CrossShardFlow(benchmark::State& state) {
  const bool pooled = state.range(0) == kPooled;
  for (auto _ : state) {
    state.PauseTiming();
    PumpedChain c(pooled);
    shard::ShardGroup group(2);
    shard::ShardedRealization real(group, c.pipe);
    real.start();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    state.ResumeTiming();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    if (c.sink.count() != kItems) {
      state.SkipWithError("sharded flow lost items");
      return;
    }
    mem::Pool::Stats agg;
    for (int s = 0; s < group.size(); ++s) {
      const mem::Pool::Stats ps = group.runtime(s).pool().stats();
      agg.hits += ps.hits;
      agg.misses += ps.misses;
      agg.foreign_returned += ps.foreign_returned;
      agg.foreign_adopted += ps.foreign_adopted;
    }
    report(state, kItems, allocs, pooled ? &agg : nullptr);
    if (pooled) {
      state.counters["cross_shard_recycles_per_item"] = benchmark::Counter(
          static_cast<double>(agg.foreign_returned + agg.foreign_adopted) /
          static_cast<double>(kItems));
    }
    if (obsbench::enabled()) {
      obsbench::captured()[pooled ? "BM_CrossShardFlow/pooled"
                                  : "BM_CrossShardFlow/inline"] =
          real.metrics_snapshot().to_json();
    }
    state.ResumeTiming();
  }
}
// Real time: the bench thread parks in wait_finished while shard threads
// do the work.
// mode: 1 = pooled block, 2 = inline-in-Item.
BENCHMARK(BM_CrossShardFlow)
    ->DenseRange(kPooled, kInline)
    ->ArgName("mode")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The same cut flow with inline payloads and span-moving pumps
// (max_batch = 32), batch on vs off. The off row is the identical pipeline
// at max_batch = 1, so the delta is the per-burst amortization alone.

void BM_CrossShardFlowBatched(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    PumpedChain c(/*pooled=*/false, batched ? 32 : 1);
    shard::ShardGroup group(2);
    shard::ShardedRealization real(group, c.pipe);
    real.start();
    state.ResumeTiming();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("sharded flow lost items");
      return;
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    if (obsbench::enabled()) {
      obsbench::captured()[batched ? "BM_CrossShardFlowBatched/on"
                                   : "BM_CrossShardFlowBatched/off"] =
          real.metrics_snapshot().to_json();
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CrossShardFlowBatched)
    ->Arg(1)
    ->ArgName("batch")
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

OBSBENCH_MAIN();
