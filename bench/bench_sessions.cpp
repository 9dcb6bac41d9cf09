// ip_session scalability: the price of a flow, and how many fit.
//
// The two claims the session layer makes, measured:
//
//  1. Opening a session is a STAMP, not a realization. BM_OpenCloseStamp
//     times open_on()+close() against the shared per-shard engines (a
//     slot issue and two queue pushes); BM_OpenCloseRealize times
//     the classic per-flow alternative built here in the bench: every open
//     plans and realizes its own pipeline emitting the same items. The
//     ratio between the two is the headline number and the acceptance bar
//     is >= 10x.
//
//  2. Tens of thousands of live flows fit in one process.
//     BM_HoldTenThousandSessions opens 10,000 sessions with staggered
//     cadences over a launched 2-shard group, holds them pumping on real
//     clocks, and reports live count, aggregate item rate and the merged
//     p50/p99 inter-item jitter (|actual - scheduled| per session, from
//     the engines' wait-free histograms). The realization counter stays at
//     n_shards throughout — one plan, stamped 10,000 times.
//
// Accepts --metrics-out=FILE: dumps per-scenario counters.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/infopipes.hpp"
#include "rt/clock.hpp"
#include "session/engine.hpp"
#include "session/plan.hpp"
#include "session/session.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"

namespace {

using namespace infopipe;
using namespace infopipe::session;

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

const SessionParams kOpenCloseParams{QosClass::kBronze, 10.0, 64};

/// Manual group: open_on/close run to completion inline with no engine
/// threads competing, so the loop times exactly the per-flow admission
/// cost and nothing else.
void BM_OpenCloseStamp(benchmark::State& state) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  int shard = 0;
  rt::Time t = 0;
  for (auto _ : state) {
    const SessionId id = table.open_on(shard, kOpenCloseParams);
    table.close(id);
    // Drive the shard runtimes so the stamp path also pays its engine-side
    // work (two queue ops drained, the slot freed), as the realize loop
    // below does.
    group.step_until(t += rt::microseconds(10));
    shard ^= 1;
  }
  state.counters["realizations"] = static_cast<double>(table.realizations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenCloseStamp);

/// The classic per-flow source: the items the shared engine would stamp for
/// one session.
class PerFlowSource : public ClockedSourceBase {
 public:
  PerFlowSource(SessionId id, const SessionParams& p)
      : ClockedSourceBase("flow.src", p.rate_hz),
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

/// One session as its own pipeline and realization: what open_on() would
/// cost without the shared plan.
struct PerFlow {
  PerFlowSource src;
  std::vector<std::unique_ptr<Component>> stages;
  SessionSink sink;
  std::shared_ptr<Pipeline> pipe = std::make_shared<Pipeline>();
  std::unique_ptr<Realization> real;

  PerFlow(rt::Runtime& rtm, const SharedPlan& plan, int shard, SessionId id,
          ShardState* st)
      : src(id, kOpenCloseParams), sink("flow.sink", st) {
    if (plan.spec().stages) stages = plan.spec().stages(shard);
    Component* prev = &src;
    for (auto& stage : stages) {
      pipe->connect(*prev, *stage);
      prev = stage.get();
    }
    pipe->connect(*prev, sink);
    real = std::make_unique<Realization>(rtm, pipe);
    real->post_event(Event{kEventStart});
  }
};

void BM_OpenCloseRealize(benchmark::State& state) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  ShardState states[2];
  // The flows carry ids a table issued, one per shard (an id only seeds
  // the payload bytes); that table lives on a group of its own so its
  // engines stay out of the timed loop.
  std::vector<SessionId> ids;
  {
    shard::ShardGroup id_group(2, manual_opts());
    SessionTable table(id_group, plan);
    for (int s = 0; s < 2; ++s) {
      ids.push_back(table.open_on(s, kOpenCloseParams));
    }
  }
  int shard = 0;
  rt::Time t = 0;
  for (auto _ : state) {
    {
      // Open plans and realizes the flow; close shuts it down and destroys
      // the realization.
      PerFlow flow(group.runtime(shard), *plan, shard,
                   ids[static_cast<std::size_t>(shard)], &states[shard]);
      flow.real->post_event(Event{kEventShutdown});
    }
    // Dispatch start/shutdown and reclaim the flow's threads (without this
    // the manual runtimes never run and memory just grows).
    group.step_until(t += rt::microseconds(10));
    shard ^= 1;
  }
  state.counters["realizations"] = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenCloseRealize);

void BM_HoldTenThousandSessions(benchmark::State& state) {
  constexpr int kSessions = 10000;
  constexpr auto kHold = std::chrono::seconds(3);

  for (auto _ : state) {
    shard::ShardGroup group(2);
    group.launch();
    const auto plan = SharedPlan::analyze(EngineSpec{});
    SessionTable table(group, plan);

    std::vector<SessionId> ids;
    ids.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      SessionParams p;
      p.qos = static_cast<QosClass>(i % kNumClasses);
      // Staggered cadences (0.5 .. 3.65 Hz) so the flows decohere after
      // the first tick instead of firing as one synchronized burst.
      p.rate_hz = 0.5 + 0.35 * static_cast<double>(i % 10);
      p.payload_bytes = 64;
      ids.push_back(table.open_on(i % group.size(), p));
    }

    std::this_thread::sleep_for(kHold);

    const JitterSnapshot j = table.jitter();
    const std::uint64_t items = table.items_total();
    state.counters["live_sessions"] = static_cast<double>(table.live());
    state.counters["realizations"] = static_cast<double>(table.realizations());
    state.counters["items_total"] = static_cast<double>(items);
    state.counters["items_per_sec"] =
        static_cast<double>(items) /
        std::chrono::duration<double>(kHold).count();
    state.counters["jitter_p50_ns"] = static_cast<double>(j.p50_ns);
    state.counters["jitter_p99_ns"] = static_cast<double>(j.p99_ns);
    state.counters["jitter_samples"] = static_cast<double>(j.samples);

    for (SessionId id : ids) table.close(id);
    table.stop();
    group.stop();
  }
}
BENCHMARK(BM_HoldTenThousandSessions)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
