// Sharded throughput: the same CPU-bound four-section chain executed on a
// single runtime (baseline) and on ShardGroups of 1, 2 and 4 shards.
//
// Each section carries a spin-work stage, so on a multi-core host the
// sections genuinely overlap once they sit on different kernel threads and
// throughput scales with the shard count (until the hop through the cut
// buffers dominates). On a single-core host the sharded numbers collapse
// to the baseline plus cut overhead — record the host's core count next
// to any archived result.
//
// Accepts --metrics-out=FILE: dumps the merged per-shard registries
// (shard<i>.-prefixed rows plus chan.* rows of the cut buffers) per shard
// count.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/infopipes.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace {

using namespace infopipe;

constexpr std::uint64_t kItems = 2000;
constexpr int kSpins = 2000;

/// CPU-bound stage: an LCG churn per item, heavy enough that compute (not
/// scheduling) dominates a section's cost.
class SpinWork : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

 protected:
  Item convert(Item x) override {
    std::uint64_t acc = x.seq + 1;
    for (int i = 0; i < kSpins; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    benchmark::DoNotOptimize(acc);
    return x;
  }
};

/// Four sections separated by three passive buffers; every section does
/// the same spin work, so an even 2- or 4-way partition balances.
struct FourStageChain {
  CountingSource src{"src", kItems};
  FreeRunningPump p1{"p1"};
  SpinWork w1{"w1"};
  Buffer b1{"b1", 64};
  FreeRunningPump p2{"p2"};
  SpinWork w2{"w2"};
  Buffer b2{"b2", 64};
  FreeRunningPump p3{"p3"};
  SpinWork w3{"w3"};
  Buffer b3{"b3", 64};
  FreeRunningPump p4{"p4"};
  SpinWork w4{"w4"};
  CountingSink sink{"sink"};
  Pipeline pipe;

  FourStageChain() {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, w1, 0);
    pipe.connect(w1, 0, b1, 0);
    pipe.connect(b1, 0, p2, 0);
    pipe.connect(p2, 0, w2, 0);
    pipe.connect(w2, 0, b2, 0);
    pipe.connect(b2, 0, p3, 0);
    pipe.connect(p3, 0, w3, 0);
    pipe.connect(w3, 0, b3, 0);
    pipe.connect(b3, 0, p4, 0);
    pipe.connect(p4, 0, w4, 0);
    pipe.connect(w4, 0, sink, 0);
  }
};

void BM_SingleRuntimeBaseline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FourStageChain c;
    rt::Runtime rtm;
    Realization real(rtm, c.pipe);
    real.start();
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("baseline lost items");
      return;
    }
    obsbench::capture(rtm, "BM_SingleRuntimeBaseline");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SingleRuntimeBaseline)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardThroughput(benchmark::State& state) {
  const int n_shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FourStageChain c;
    shard::ShardGroup group(n_shards);
    shard::ShardedRealization real(group, c.pipe);
    // start() launches the shard threads and can block for most of the
    // flow, so it sits inside the timed region.
    state.ResumeTiming();
    real.start();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("sharded run lost items");
      return;
    }
    if (obsbench::enabled()) {
      obsbench::captured()["BM_ShardThroughput/" + std::to_string(n_shards)] =
          real.metrics_snapshot().to_json();
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
  state.counters["shards"] = n_shards;
}
// Real time, not CPU time: the bench thread parks in wait_finished while
// the shard threads do the work.
BENCHMARK(BM_ShardThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cross-shard item movement, batched vs per-item (ARCHITECTURE §15). No
// spin work: token items through src -> pump -> [cut] -> pump -> sink on 2
// shards, so items/sec measures the movement machinery itself — driver
// cycles, ring moves and cross-shard wakes — which is exactly what spans
// amortize. max_batch = 1 is the per-item baseline.

constexpr std::uint64_t kFlowItems = 200000;

void BM_CrossShardBatchedFlow(benchmark::State& state) {
  const auto mb = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CountingSource src{"src", kFlowItems};
    FreeRunningPump p1{PumpSpec{.name = "p1", .max_batch = mb}};
    Buffer buf{"buf", 256};
    FreeRunningPump p2{PumpSpec{.name = "p2", .max_batch = mb}};
    CountingSink sink{"sink"};
    Pipeline pipe;
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, buf, 0);
    pipe.connect(buf, 0, p2, 0);
    pipe.connect(p2, 0, sink, 0);
    shard::ShardGroup group(2);
    shard::ShardedRealization real(group, pipe);
    state.ResumeTiming();  // start() included, as in BM_ShardThroughput
    real.start();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (sink.count() != kFlowItems) {
      state.SkipWithError("batched flow lost items");
      return;
    }
    if (obsbench::enabled()) {
      obsbench::captured()["BM_CrossShardBatchedFlow/" +
                           std::to_string(mb)] =
          real.metrics_snapshot().to_json();
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kFlowItems));
    state.ResumeTiming();
  }
  state.counters["max_batch"] = static_cast<double>(mb);
}
BENCHMARK(BM_CrossShardBatchedFlow)
    ->Arg(1)   // per-item baseline
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cross-thread wake: one post_external round trip from the bench thread to a
// runtime hosted by run_service() on its own kernel thread. Arg 0 lets the
// runtime park before every post (the post pays the wake); arg 1 keeps it
// busy in a yield loop (the post only joins the external batch). Manual
// time: from the post to the bench thread seeing the acknowledgement. Both
// threads spin, so they are pinned to different cores: left to the kernel
// they can share one core for a second, and each round trip then waits
// out a time slice.

void pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void BM_CrossThreadWake(benchmark::State& state) {
  const bool running = state.range(0) == 1;
  cpu_set_t saved;
  (void)pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
  pin_to_cpu(0);
  rt::Runtime rtm(std::make_unique<rt::RealClock>());
  std::atomic<std::uint64_t> acks{0};
  std::atomic<bool> done{false};
  const rt::ThreadId echo = rtm.spawn(
      "echo", rt::kPriorityData, [&acks](rt::Runtime&, rt::Message) {
        acks.fetch_add(1, std::memory_order_release);
        return rt::CodeResult::kContinue;
      });
  if (running) {
    const rt::ThreadId spin = rtm.spawn(
        "spin", rt::kPriorityData, [&done](rt::Runtime& r, rt::Message) {
          while (!done.load(std::memory_order_relaxed)) r.yield();
          return rt::CodeResult::kTerminate;
        });
    rtm.send(spin, rt::Message{});
  }
  std::thread host([&rtm] {
    pin_to_cpu(1);
    rtm.run_service();
  });
  std::uint64_t posted = 0;
  for (auto _ : state) {
    if (!running) std::this_thread::sleep_for(std::chrono::microseconds(50));
    const auto t0 = std::chrono::steady_clock::now();
    rtm.post_external(echo, rt::Message{});
    ++posted;
    while (acks.load(std::memory_order_acquire) < posted) {
    }
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  done.store(true, std::memory_order_relaxed);
  rtm.request_halt();
  host.join();
  (void)pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  state.SetLabel(running ? "running" : "parked");
}
BENCHMARK(BM_CrossThreadWake)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

OBSBENCH_MAIN();
