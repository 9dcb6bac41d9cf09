// E1 — §4: "A context switch between the user level threads takes about
// 1 µs; the time for a mere function call is two orders of magnitude
// shorter. Hence, the approach ... in which threads and coroutines are
// introduced only when necessary is mostly important for pipelines that
// handle many ... small data items."
//
// Reproduced here as the cost ladder the planner navigates:
//   virtual function call                 (direct component invocation)
//   raw user-level context switch         (Context::switch_to round trip)
//   scheduled thread switch               (yield to the scheduler's pick)
//   message send + dispatch               (one rt message)
//   full coroutine data hand-off          (channel push: 2 wakes, one
//                                          switch each, what one adapted
//                                          component costs per item)
//   the same hand-off in bursts           (one hand-off per platform-chosen
//                                          burst of up to kBurstCap items)
//
// The paper's *shape* to check: switch >> call (about two orders of
// magnitude), and the hand-off a small multiple of the raw switch.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include "core/infopipes.hpp"
#include "rt/context.hpp"

namespace {

using namespace infopipe;

// -- baseline: a virtual call through an opaque pointer ------------------------

struct CallIface {
  virtual ~CallIface() = default;
  virtual std::uint64_t apply(std::uint64_t x) = 0;
};
struct CallImpl final : CallIface {
  std::uint64_t apply(std::uint64_t x) override { return x * 2654435761u + 1; }
};

void BM_VirtualFunctionCall(benchmark::State& state) {
  CallImpl impl;
  CallIface* iface = &impl;
  benchmark::DoNotOptimize(iface);
  std::uint64_t acc = 1;
  for (auto _ : state) {
    acc = iface->apply(acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_VirtualFunctionCall);

// -- raw stack switch: ping-pong between two bare contexts ----------------------

struct PingPong {
  rt::Context main_ctx;
  rt::Context co_ctx;
  rt::Stack stack{64 * 1024};
  bool stop = false;

  static void entry(void* arg) {
    auto* self = static_cast<PingPong*>(arg);
    for (;;) {
      rt::Context::switch_to(self->co_ctx, self->main_ctx);
      if (self->stop) {
        // final switch back; never resumed again
        rt::Context::switch_to(self->co_ctx, self->main_ctx);
      }
    }
  }
};

void BM_RawContextSwitchRoundTrip(benchmark::State& state) {
  PingPong pp;
  pp.co_ctx.init(pp.stack.top(), pp.stack.usable_size(), &PingPong::entry,
                 &pp);
  rt::Context::switch_to(pp.main_ctx, pp.co_ctx);  // start the coroutine
  for (auto _ : state) {
    // one round trip = two context switches
    rt::Context::switch_to(pp.main_ctx, pp.co_ctx);
  }
  pp.stop = true;
  rt::Context::switch_to(pp.main_ctx, pp.co_ctx);
}
BENCHMARK(BM_RawContextSwitchRoundTrip);

// -- scheduled switch: two runtime threads yielding to each other ----------------
// Measured over a fixed round count per timed region (items/s in the
// counters gives the per-switch cost).

void BM_ScheduledYield(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rt::Runtime rtm;
    constexpr std::uint64_t kRounds = 2000;
    auto body = [](rt::Runtime& r, rt::Message) -> rt::CodeResult {
      for (std::uint64_t i = 0; i < kRounds; ++i) r.yield();
      return rt::CodeResult::kTerminate;
    };
    rtm.send(rtm.spawn("a", rt::kPriorityData, body), rt::Message{});
    rtm.send(rtm.spawn("b", rt::kPriorityData, body), rt::Message{});
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    obsbench::capture(rtm, "BM_ScheduledYield");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(2 * kRounds));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ScheduledYield)->Unit(benchmark::kMicrosecond);

// -- one asynchronous message: send + dispatch ------------------------------------

void BM_MessageSendDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rt::Runtime rtm;
    constexpr std::uint64_t kMsgs = 4000;
    const rt::ThreadId sink = rtm.spawn(
        "sink", rt::kPriorityData,
        [](rt::Runtime&, rt::Message) { return rt::CodeResult::kContinue; });
    const rt::ThreadId src = rtm.spawn(
        "src", rt::kPriorityData,
        [sink](rt::Runtime& r, rt::Message) -> rt::CodeResult {
          for (std::uint64_t i = 0; i < kMsgs; ++i) {
            r.send(sink, rt::Message{1, rt::MsgClass::kData});
          }
          return rt::CodeResult::kTerminate;
        });
    rtm.send(src, rt::Message{});
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    obsbench::capture(rtm, "BM_MessageSendDispatch");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kMsgs));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_MessageSendDispatch)->Unit(benchmark::kMicrosecond);

// -- full coroutine hand-off per item ----------------------------------------------

/// src -> pump -> active -> sink, kItems items per iteration: one coroutine
/// on the push side, fed by a pump with the given burst bound.
void run_handoff(benchmark::State& state, std::size_t max_batch,
                 const char* label) {
  for (auto _ : state) {
    state.PauseTiming();
    constexpr std::uint64_t kItems = 2000;
    rt::Runtime rtm;
    CountingSource src("src", kItems);
    FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = max_batch});
    // Active component: forces exactly one coroutine on the push side.
    LambdaActive noop("noop", [](const auto& pull, const auto& push) {
      for (;;) push(pull());
    });
    CountingSink sink("sink");
    auto ch = src >> pump >> noop >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    obsbench::capture(rtm, label);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
}

/// The paper's E1 row: one item per fire, so every item is one hand-off.
void BM_CoroutineHandoffPerItem(benchmark::State& state) {
  run_handoff(state, 1, "BM_CoroutineHandoffPerItem");
}
BENCHMARK(BM_CoroutineHandoffPerItem)->Unit(benchmark::kMicrosecond);

/// The same pipeline with the platform choosing the burst: one hand-off
/// carries up to kBurstCap items.
void BM_CoroutineHandoffBurst(benchmark::State& state) {
  run_handoff(state, 0, "BM_CoroutineHandoffBurst");
}
BENCHMARK(BM_CoroutineHandoffBurst)->Unit(benchmark::kMicrosecond);

// -- the same pipeline with zero coroutines (direct calls) --------------------------

void BM_DirectCallPipelinePerItem(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    constexpr std::uint64_t kItems = 2000;
    rt::Runtime rtm;
    CountingSource src("src", kItems);
    // One item per fire, like the per-item hand-off row it is compared to.
    FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 1});
    IdentityFunction noop("noop");  // function style: direct call
    CountingSink sink("sink");
    auto ch = src >> pump >> noop >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    state.ResumeTiming();
    rtm.run();
    state.PauseTiming();
    obsbench::capture(rtm, "BM_DirectCallPipelinePerItem");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DirectCallPipelinePerItem)->Unit(benchmark::kMicrosecond);

}  // namespace

OBSBENCH_MAIN();
