// ip_replay: what does schedule recording cost the paths it taps?
//
// The dormant rows show what a run that never records pays for the taps:
// with no sink installed a tap is one relaxed atomic load and a
// not-taken branch, so BM_TapDormant should sit within noise of
// BM_TapCompiledOut (the same loop with the tap call absent). BM_TapLive
// prices the other end — a ScheduleRecorder actually appending frames under
// its mutex — which is the cost a RECORDED run pays, never a production one.
//
// BM_ChannelPushPop then measures the real carrier: a ShardChannel ring
// cycle with the taps dormant vs recording, the per-item number to compare
// against bench_shard's batched-movement rows.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <cstdint>

#include "core/infopipes.hpp"
#include "replay/recorder.hpp"
#include "rt/runtime.hpp"
#include "shard/channel.hpp"

using namespace infopipe;

namespace {

// A counter the optimizer cannot see through, standing in for the work a
// dispatch loop does around the tap.
std::uint64_t g_work = 0;

void BM_TapCompiledOut(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    benchmark::DoNotOptimize(g_work);
  }
}
BENCHMARK(BM_TapCompiledOut);

void BM_TapDormant(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    replay::note_dispatch(&g_work, i, 1);
    benchmark::DoNotOptimize(g_work);
  }
}
BENCHMARK(BM_TapDormant);

void BM_TapLive(benchmark::State& state) {
  replay::ScheduleRecorder rec;
  rec.install();
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    replay::note_dispatch(&g_work, i, 1);
    benchmark::DoNotOptimize(g_work);
  }
  rec.uninstall();
  state.counters["frames"] =
      static_cast<double>(rec.frames_recorded());
}
BENCHMARK(BM_TapLive);

/// One ring cycle (try_push + try_pop) per iteration; `recording` selects
/// dormant taps (0) or an installed ScheduleRecorder (1).
void BM_ChannelPushPop(benchmark::State& state) {
  rt::Runtime rtm;
  shard::ShardChannel ch("bench.replay", 64);
  ch.bind_producer(rtm, 0);
  ch.bind_consumer(rtm, 1);
  replay::ScheduleRecorder rec;
  if (state.range(0) != 0) rec.install();
  for (auto _ : state) {
    Item x = Item::token(1);
    benchmark::DoNotOptimize(ch.try_push(x));
    benchmark::DoNotOptimize(ch.try_pop());
  }
  rec.uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop)->Arg(0)->Arg(1);

}  // namespace

OBSBENCH_MAIN();
