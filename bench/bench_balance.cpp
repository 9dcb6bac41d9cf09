// ip_balance overhead and recovery characteristics.
//
// Two questions a deployer asks before turning the rebalancer on:
//
//  1. What does the accounting cost while nothing is wrong?
//     BM_SteadyStateAccountantPair runs the same 2-shard spin-work flow
//     twice per iteration: once plain, and once beside an autonomous
//     Rebalancer whose replan threshold (min_imbalance) is set high enough
//     that it only ever samples (no migrations). The two alternate which
//     goes first, within one process, so drift on a shared host hits both
//     alike. Each flow runs kSteadyItems items, long enough (about 2.5 s)
//     for at least kMinSamples samples at the default 200 ms period; a
//     pair whose accountant sampled fewer times is rejected, since its
//     delta would be launch/stop cost, not sampling. overhead_pct is the
//     pair's accountant-vs-baseline delta, the steady-state tax of
//     LoadAccountant::sample() firing at the default period; the
//     acceptance bar is < 3% of baseline time. Read it over repetitions
//     (scripts/bench_balance.py reports the median and spread).
//
//  2. How quickly does a skewed placement recover?
//     BM_SkewRecovery builds a deterministic manual-mode group, piles
//     every section onto shard 0 with an explicit migrate_section, feeds
//     the accountant a skewed busy profile, and counts Rebalancer::step()
//     calls until the placement splits again. The measured time is the
//     full sample -> plan -> move_section path, i.e. the cost of one
//     recovery, and the step count is reported as a counter.
//
//  3. What does a whole scale cycle cost while the flow runs?
//     BM_ElasticScaleCycle grows a live 2-shard group by one shard, moves
//     the middle section onto it, then drains and retires the section's
//     old home — all mid-flow, under real kernel threads. The drain_ms
//     counter is the time from evacuate_shard() to retire_shard()
//     returning (quiesce + transfer + resume + thread join), and the run
//     is rejected outright if a single item is lost.
//
// Accepts --metrics-out=FILE: dumps the rebalancer's balance.* registry
// and the merged per-shard registries per scenario.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "balance/rebalancer.hpp"
#include "core/infopipes.hpp"
#include "rt/clock.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace {

using namespace infopipe;

constexpr std::uint64_t kItems = 2000;
constexpr int kSpins = 2000;
/// Steady-state flow length: about 2.5 s on a 4-vCPU host, so the default
/// 200 ms accountant period samples more than kMinSamples times.
constexpr std::uint64_t kSteadyItems = 350'000;
constexpr double kMinSamples = 10;

/// CPU-bound stage, heavy enough that compute (not scheduling or
/// accounting bookkeeping) dominates a section's cost.
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

/// Three sections separated by two passive buffers — enough sections that
/// a 2-shard group has something to move.
struct ThreeStageChain {
  explicit ThreeStageChain(std::uint64_t items = kItems) : src{"src", items} {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, w1, 0);
    pipe.connect(w1, 0, b1, 0);
    pipe.connect(b1, 0, p2, 0);
    pipe.connect(p2, 0, w2, 0);
    pipe.connect(w2, 0, b2, 0);
    pipe.connect(b2, 0, p3, 0);
    pipe.connect(p3, 0, w3, 0);
    pipe.connect(w3, 0, sink, 0);
  }

  CountingSource src;
  FreeRunningPump p1{"p1"};
  SpinWork w1{"w1"};
  Buffer b1{"b1", 64};
  FreeRunningPump p2{"p2"};
  SpinWork w2{"w2"};
  Buffer b2{"b2", 64};
  FreeRunningPump p3{"p3"};
  SpinWork w3{"w3"};
  CountingSink sink{"sink"};
  Pipeline pipe;
};

/// One steady-state flow of kSteadyItems items; returns its wall time in ms
/// (start to finish), or a negative value if it lost items. With an
/// accountant, `samples` receives how many times it sampled.
double steady_flow_ms(bool with_accountant, double& samples) {
  ThreeStageChain c(kSteadyItems);
  shard::ShardGroup group(2);
  shard::ShardedRealization real(group, c.pipe);
  std::unique_ptr<balance::Rebalancer> rb;
  if (with_accountant) {
    balance::Rebalancer::Options opt;
    // Sample at the default cadence but never act: a threshold above 1.0
    // is unreachable, so this measures pure accounting cost.
    opt.min_imbalance = 2.0;
    rb = std::make_unique<balance::Rebalancer>(real, opt);
  }
  const auto t0 = std::chrono::steady_clock::now();
  real.start();
  if (rb) rb->launch();
  real.wait_finished(std::chrono::seconds(120));
  const auto t1 = std::chrono::steady_clock::now();
  if (rb) rb->stop();
  if (c.sink.count() != kSteadyItems) return -1.0;
  const std::string label = with_accountant
                                ? "BM_SteadyStateAccountantPair/accountant"
                                : "BM_SteadyStateAccountantPair/baseline";
  if (obsbench::enabled()) {
    obsbench::captured()[label] = real.metrics_snapshot().to_json();
  }
  if (rb) {
    const obs::MetricsSnapshot ms = rb->metrics_snapshot();
    const obs::MetricValue* steps = ms.find("balance.steps");
    samples = steps == nullptr ? 0.0 : static_cast<double>(steps->count);
    if (obsbench::enabled()) {
      obsbench::captured()["BM_SteadyStateAccountantPair/rebalancer"] =
          ms.to_json();
    }
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void BM_SteadyStateAccountantPair(benchmark::State& state) {
  static int pair = 0;  // alternates the order across repetitions
  for (auto _ : state) {
    const bool accountant_first = (pair++ % 2) == 1;
    double samples = 0.0;
    double base_ms = 0.0;
    double acct_ms = 0.0;
    for (const bool acct : {accountant_first, !accountant_first}) {
      (acct ? acct_ms : base_ms) = steady_flow_ms(acct, samples);
    }
    if (base_ms < 0.0 || acct_ms < 0.0) {
      state.SkipWithError("steady-state run lost items");
      return;
    }
    if (samples < kMinSamples) {
      state.SkipWithError("accountant sampled fewer than 10 times");
      return;
    }
    state.counters["baseline_ms"] = base_ms;
    state.counters["accountant_ms"] = acct_ms;
    state.counters["overhead_pct"] = 100.0 * (acct_ms - base_ms) / base_ms;
    state.counters["samples"] = samples;
    state.SetIterationTime((base_ms + acct_ms) / 1e3);
    state.SetItemsProcessed(static_cast<std::int64_t>(2 * kSteadyItems));
  }
}
BENCHMARK(BM_SteadyStateAccountantPair)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Clock-paced variant for the deterministic manual-mode scenario: with
/// free-running pumps the whole flow drains inside the first lockstep
/// slice, before any skew exists to recover from.
struct ClockedChain {
  CountingSource src{"src", kItems};
  ClockedPump p1{"p1", 400.0};
  SpinWork w1{"w1"};
  Buffer b1{"b1", 64};
  ClockedPump p2{"p2", 400.0};
  SpinWork w2{"w2"};
  Buffer b2{"b2", 64};
  ClockedPump p3{"p3", 400.0};
  SpinWork w3{"w3"};
  CountingSink sink{"sink"};
  Pipeline pipe;

  ClockedChain() {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, w1, 0);
    pipe.connect(w1, 0, b1, 0);
    pipe.connect(b1, 0, p2, 0);
    pipe.connect(p2, 0, w2, 0);
    pipe.connect(w2, 0, b2, 0);
    pipe.connect(b2, 0, p3, 0);
    pipe.connect(p3, 0, w3, 0);
    pipe.connect(w3, 0, sink, 0);
  }
};

void BM_SkewRecovery(benchmark::State& state) {
  std::int64_t total_steps = 0;
  std::int64_t recoveries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ClockedChain c;
    shard::ShardGroup::GroupOptions gopt;
    gopt.manual = true;
    gopt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
    shard::ShardGroup group(2, gopt);
    shard::ShardedRealization real(group, c.pipe);
    real.start();
    group.step_until(rt::milliseconds(100));
    // Induce the skew: pile every section onto shard 0.
    for (std::size_t s = 0; s < 3; ++s) {
      if (real.shard_of_section(s) != 0) real.migrate_section(s, 0);
    }
    balance::Rebalancer rb(real);
    state.ResumeTiming();
    // A busy profile matching the bad placement: the first step already
    // replans and runs the plan's first move, so recovery takes one step.
    int steps = 0;
    bool recovered = false;
    for (; steps < 50; ++steps) {
      rb.accountant().note_busy_sample(0, 0.9);
      rb.accountant().note_busy_sample(1, 0.05);
      auto rep = rb.step();
      if (rep && rep->ok()) {
        recovered = true;
        ++steps;
        break;
      }
    }
    state.PauseTiming();
    if (!recovered) {
      state.SkipWithError("skew never recovered");
      return;
    }
    total_steps += steps;
    ++recoveries;
    // Drain the flow so teardown is clean and the move provably lost
    // nothing. Lockstep slices, not one jump: cross-shard channels only
    // make progress when the two shards' virtual clocks advance together.
    for (rt::Time t = rt::milliseconds(200); t <= rt::seconds(60);
         t += rt::milliseconds(100)) {
      group.step_until(t);
      if (c.sink.count() == kItems) break;
    }
    if (c.sink.count() != kItems) {
      state.SkipWithError("skew recovery lost items");
      return;
    }
    obsbench::capture(group.runtime(0), "BM_SkewRecovery");
    if (obsbench::enabled()) {
      obsbench::captured()["BM_SkewRecovery/rebalancer"] =
          rb.metrics_snapshot().to_json();
    }
    state.ResumeTiming();
  }
  if (recoveries > 0) {
    state.counters["steps_to_recover"] =
        static_cast<double>(total_steps) / static_cast<double>(recoveries);
  }
}
BENCHMARK(BM_SkewRecovery)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ElasticScaleCycle(benchmark::State& state) {
  std::int64_t cycles = 0;
  std::int64_t drain_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ThreeStageChain c;
    shard::ShardGroup group(2);
    shard::ShardedRealization real(group, c.pipe);
    real.start();
    state.ResumeTiming();

    // Scale up: one more pinned runtime, and the middle section moves
    // onto it while items stream.
    const int added = group.add_shard();
    real.sync_topology();
    const int victim = real.shard_of_section(1);
    real.migrate_section(1, added);

    // Scale down: drain whatever still lives on the old home, then join
    // its kernel thread. This is the latency a deployer pays to shrink.
    const auto t0 = std::chrono::steady_clock::now();
    real.evacuate_shard(victim);
    group.retire_shard(victim);
    const auto t1 = std::chrono::steady_clock::now();
    drain_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count();
    ++cycles;

    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("scale cycle lost items");
      return;
    }
    if (obsbench::enabled()) {
      obsbench::captured()["BM_ElasticScaleCycle"] =
          real.metrics_snapshot().to_json();
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
  if (cycles > 0) {
    state.counters["drain_ms"] = static_cast<double>(drain_ns) /
                                 static_cast<double>(cycles) / 1e6;
  }
}
BENCHMARK(BM_ElasticScaleCycle)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

OBSBENCH_MAIN();
