// E10 — composition machinery cost (§2.3): Typespec intersection, the
// connect-time check, and full planning (polarity resolution + Typespec
// propagation + allocation) as a function of pipeline length. Setup-time
// costs, paid once per binding — the expected shape is small and roughly
// linear in pipeline length.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <memory>
#include <vector>

#include "core/infopipes.hpp"
#include "lang/microlang.hpp"

namespace {

using namespace infopipe;

Typespec video_offer() {
  return Typespec{{props::kItemType, std::string("video")},
                  {props::kFormats, StringSet{"mpeg1", "mpeg2", "mpeg4"}},
                  {props::kFrameRate, Range{10, 60}},
                  {props::kWidth, Range{160, 1920}},
                  {props::kHeight, Range{120, 1080}},
                  {props::kLatencyMs, Range{0, 500}}};
}

Typespec video_need() {
  return Typespec{{props::kItemType, std::string("video")},
                  {props::kFormats, StringSet{"mpeg2", "raw"}},
                  {props::kFrameRate, Range{24, 30}},
                  {props::kWidth, Range{320, 640}}};
}

void BM_TypespecIntersect(benchmark::State& state) {
  const Typespec a = video_offer();
  const Typespec b = video_need();
  for (auto _ : state) {
    auto r = a.intersect(b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TypespecIntersect);

void BM_TypespecSubset(benchmark::State& state) {
  const Typespec a = video_need();
  const Typespec b = video_offer();
  for (auto _ : state) {
    bool r = a.subset_of(b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TypespecSubset);

void BM_TypespecMarshalSizeProxy(benchmark::State& state) {
  // to_string is the diagnostic rendering used in composition errors.
  const Typespec a = video_offer();
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_TypespecMarshalSizeProxy);

/// Full compose+plan for a chain of N filters (connect checks included).
void BM_ComposeAndPlan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CountingSource src("src", 1);
    FreeRunningPump pump("pump");
    CountingSink sink("sink");
    std::vector<std::unique_ptr<IdentityFunction>> fns;
    fns.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      fns.push_back(
          std::make_unique<IdentityFunction>("f" + std::to_string(i)));
    }
    state.ResumeTiming();
    Pipeline p;
    p.connect(src, 0, pump, 0);
    Component* prev = &pump;
    for (auto& f : fns) {
      p.connect(*prev, 0, *f, 0);
      prev = f.get();
    }
    p.connect(*prev, 0, sink, 0);
    Plan pl = plan(p);
    benchmark::DoNotOptimize(pl);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ComposeAndPlan)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity(benchmark::oN);

/// Microlanguage: parse + build a textual pipeline description (the other
/// composition front end; cost paid once per configuration load).
void BM_MicroLangParse(benchmark::State& state) {
  lang::MicroLang ml;
  const std::string program = R"(
    let movie  = mpeg_file(demo.mpg, 300, 30)
    let decode = decoder()
    let fill   = freerunning_pump()
    let jitter = buffer(8, block, nil)
    let play   = pump(30)
    let screen = display(30)
    chain movie -> decode -> fill -> jitter -> play -> screen
  )";
  for (auto _ : state) {
    lang::Assembly a = ml.parse(program);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_MicroLangParse)->Unit(benchmark::kMicrosecond);

/// Realize+teardown: thread creation cost per pipeline, reclamation
/// included — the runtime only reaps killed threads when it runs, so
/// without the run() every iteration would leak its stacks.
void BM_RealizeTeardown(benchmark::State& state) {
  rt::Runtime rt;
  CountingSource src("src", 1);
  FreeRunningPump pump("pump");
  IdentityFunction fn("fn");
  CountingSink sink("sink");
  auto ch = src >> fn >> pump >> sink;
  for (auto _ : state) {
    {
      Realization real(rt, ch.pipeline());
      benchmark::DoNotOptimize(real.thread_count());
    }
    rt.run();
  }
  obsbench::capture(rt, "BM_RealizeTeardown");
}
BENCHMARK(BM_RealizeTeardown)->Unit(benchmark::kMicrosecond);

}  // namespace

OBSBENCH_MAIN();
