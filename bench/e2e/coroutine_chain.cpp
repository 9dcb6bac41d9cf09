// coroutine_chain: the paper's core cost on one runtime.
//
//   src -> gen -> ingress -> consumer | pump | producer -> mid(64)
//       -> pump2 | active -> sink
//
// The Figure 9e section (a passive consumer upstream of the pump and a
// passive producer downstream of it: three coroutines) feeds a passive
// Buffer(64), drained by a second pump into an active-style stage (two
// more). 512-byte pooled payloads are made and freed on the same runtime
// thread, so the work is coroutine hand-off (rt), pump and buffer cycles
// (core) and owner-thread pool recycling (mem) — no shard, net or session
// code runs, so a change to those layers must not move this workload.
#include <memory>

#include "flow.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace infopipe;

constexpr std::size_t kPayloadBytes = 512;
constexpr std::size_t kClosedBatch = 64;
/// Offered rate of the open loop (about half the measured capacity,
/// rounded down to a 1-2-5 step).
constexpr double kOfferedRate = 100'000.0;

/// The Figure 9e consumer: forwards every item (push style).
class Forward final : public Consumer {
 public:
  using Consumer::Consumer;

 protected:
  void push(Item x) override { push_next(std::move(x)); }
};

/// The Figure 9e producer: returns every item (pull style).
class PassThrough final : public Producer {
 public:
  using Producer::Producer;

 protected:
  Item pull() override { return pull_prev(); }
};

/// An active-style stage: the paper's `while (running)` pull/push loop.
class Relay final : public ActiveComponent {
 public:
  using ActiveComponent::ActiveComponent;

 protected:
  void run() override {
    for (;;) push_next(pull_prev());
  }
};

// Boundaries: 0 due | 1 gen.start | 2 gen.end, then a probe after each of
// gen, ingress, consumer, pump, producer, mid, pump2 and active (3..10),
// then 11 the sink. A probe after a coroutine runs on that coroutine, so
// each rt.handoff span is one message hand-off between threads.
const std::vector<std::string> kSpans = {
    "core.pump_late", "mem.make",         "core.batch", "core.buffer_wait",
    "rt.handoff",     "core.pump",        "rt.handoff", "core.buffer_wait",
    "core.pump",      "rt.handoff",       "core.sink"};

struct Chain {
  PayloadSource src;
  std::unique_ptr<Pump> gen;
  Buffer ingress;
  Forward consumer{"consumer"};
  FreeRunningPump pump{"pump"};
  PassThrough producer{"producer"};
  Buffer mid{"mid", 64};
  FreeRunningPump pump2{"pump2"};
  Relay active{"active"};
  PayloadSink sink;
  std::vector<std::unique_ptr<Probe>> probes;
  Pipeline pipe;

  Chain(const PayloadBank& bank, std::uint64_t items, std::unique_ptr<Pump> g,
        std::size_t ingress_cap, const GenPump* clock, TraceBook* book)
      : src(bank, items, book),
        gen(std::move(g)),
        ingress("ingress", ingress_cap),
        sink(bank, clock, book) {
    Component* path[] = {&src,      gen.get(), &ingress, &consumer, &pump,
                         &producer, &mid,      &pump2,   &active,   &sink};
    Component* prev = path[0];
    int boundary = kGenEnd + 1;
    for (std::size_t i = 1; i < std::size(path); ++i) {
      pipe.connect(*prev, 0, *path[i], 0);
      prev = path[i];
      if (book != nullptr && i < std::size(path) - 1) {
        probes.push_back(std::make_unique<Probe>(
            "probe" + std::to_string(boundary), *book, boundary));
        pipe.connect(*prev, 0, *probes.back(), 0);
        prev = probes.back().get();
        ++boundary;
      }
    }
  }
};

class CoroutineChain final : public Workload {
 public:
  explicit CoroutineChain(const Args& a) : bank_(a.seed, kPayloadBytes) {}

  [[nodiscard]] std::vector<std::string> spans() const override {
    return kSpans;
  }
  [[nodiscard]] double offered_rate() const override { return kOfferedRate; }

  Phase closed(const ClosedSpec& s) override {
    Phase p;
    TraceBook none(kSpans, 0);
    const SetupClock setup;
    rt::Runtime rtm{std::make_unique<rt::RealClock>()};
    Chain c(bank_, s.items == 0 ? ~std::uint64_t{0} : s.items,
            std::make_unique<FreeRunningPump>(
                PumpSpec{.name = "gen", .max_batch = kClosedBatch}),
            256, nullptr, s.traced ? &none : nullptr);
    const Ns t_real = now_ns();
    Realization real(rtm, c.pipe);
    p.realize_s = static_cast<double>(now_ns() - t_real) / 1e9;
    p.plan_threads = real.plan_info().threads;
    const Ns t_start = now_ns();
    real.start();
    setup.stop(p);
    if (s.items == 0) {
      c.src.set_deadline(now_ns() + static_cast<Ns>(s.seconds * 1e9));
    }
    rtm.run();
    finish(c, p);
    p.moved = c.sink.ok();
    p.busy_s = static_cast<double>(c.sink.eos_at() - t_start) / 1e9;
    if (s.traced) {
      p.layer = runtime_counters({&rtm}, p.ok);
      for (Metric& m : buffer_blocks({real.stats_snapshot()}, p.ok)) {
        p.layer.push_back(std::move(m));
      }
      const obs::MetricsSnapshot ms = rtm.metrics().snapshot();
      const obs::MetricValue* h = ms.find("core.handoff_ns");
      p.layer.push_back(
          {"core.handoff_us", h == nullptr ? 0.0 : h->value / 1e3, ""});
    }
    return p;
  }

  Phase open(const OpenSpec& s) override {
    Phase p;
    const auto burst = static_cast<std::size_t>(kOfferedRate / 1000.0);
    const auto ticks = static_cast<std::uint64_t>(s.seconds * 1000.0);
    const SetupClock setup;
    rt::Runtime rtm{std::make_unique<rt::RealClock>()};
    auto gen = std::make_unique<GenPump>(burst);
    const GenPump* clock = gen.get();
    Chain c(bank_, ticks * burst, std::move(gen),
            std::max<std::size_t>(256, 4 * burst), clock, s.book);
    const std::uint64_t warm = GenPump::warmup_ticks(ticks);
    c.sink.measure_from(warm * burst);
    const Ns t_real = now_ns();
    Realization real(rtm, c.pipe);
    p.realize_s = static_cast<double>(now_ns() - t_real) / 1e9;
    p.plan_threads = real.plan_info().threads;
    real.start();
    setup.stop(p);
    const double thread0 = thread_cpu_s();
    const Ns wall0 = now_ns();
    CpuMeter cpu([&c] { return c.sink.ok(); },
                 wall0 + static_cast<Ns>(warm) * GenPump::kTick);
    rtm.run();
    cpu.stop();
    const double wall = static_cast<double>(now_ns() - wall0) / 1e9;
    const double busy = thread_cpu_s() - thread0;
    finish(c, p);
    p.cpu_us_per_item = cpu.us_per_item();
    p.latency = c.sink.latency();
    if (s.book != nullptr) {
      p.layer = {
          {"rt.timer_wakeups_per_s",
           static_cast<double>(rtm.stats().timer_wakeups) / wall, ""},
          // The runtime is hosted on this thread: its CPU share is the
          // one shard's busy fraction.
          {"rt.busy_frac.shard0", busy / wall, ""},
      };
    }
    return p;
  }

 private:
  static void finish(const Chain& c, Phase& p) {
    p.attempted = c.src.produced();
    p.ok = c.sink.ok();
    if (!c.sink.eos()) {
      p.errors.emplace_back("coroutine_chain: no end of stream");
    }
  }

  PayloadBank bank_;
};

}  // namespace

std::unique_ptr<Workload> make_coroutine_chain(const Args& a) {
  return std::make_unique<CoroutineChain>(a);
}

}  // namespace e2e
