// E6 — control-event responsiveness (§2.2/§3.2/§4).
//
// "The current design is based on the assumption that control event
// handling does not require much time. Hence ... their handlers are
// executed with higher priority than potentially long-running data
// processing", and control events are delivered even while a component is
// blocked in a push or pull.
//
// Measured: the virtual-clock latency from posting a control event to its
// handler running, in three pipeline states:
//   idle            (pipeline waiting between clocked cycles)
//   busy decoding   (long-running data function in progress; the event must
//                    wait for it — never interrupt it — and run before the
//                    NEXT data function; with the platform-chosen burst,
//                    before the next burst)
//   blocked in push (producer pump blocked on a full buffer)
//
// Expected shape: idle/blocked latency ~0 (next dispatch point); busy
// latency bounded by the remaining decode time of the item (one item per
// fire) or of the burst (at most kBurstCap items), never by the queue of
// pending data items.
#include <cstdio>

#include "core/infopipes.hpp"
#include "media/mpeg.hpp"

#include "bench_obs.hpp"

using namespace infopipe;
using namespace infopipe::media;

namespace {

constexpr int kEvProbe = kEventUser + 1;

class ProbeTarget : public IdentityFunction {
 public:
  using IdentityFunction::IdentityFunction;
  rt::Time handled_at = -1;

  void handle_event(const Event& e) override {
    if (e.type == kEvProbe) handled_at = pipeline_now();
  }
};

/// Latency when the pipeline is idle between clocked cycles.
rt::Time probe_idle() {
  rt::Runtime rt;
  MpegFileSource src("m.mpg", StreamConfig{.frames = 300});
  ProbeTarget target("target");
  ClockedPump pump("pump", 10.0);  // 100 ms period: long idle gaps
  VideoDisplay display("display");
  auto ch = src >> target >> pump >> display;
  Realization real(rt, ch.pipeline());
  real.start();
  rt.run_until(rt::milliseconds(150));  // mid-gap between cycles
  const rt::Time posted = rt.now();
  real.post_event_to(target, Event{kEvProbe});
  rt.run_until(rt::milliseconds(400));
  obsbench::capture(rt, "probe_idle");
  return target.handled_at - posted;
}

/// Latency while a long decode is in progress (the handler must wait until
/// the data function finishes, §3.2, but overtakes all queued data). The
/// pump moves `max_batch` items per fire; 0 lets the platform choose.
rt::Time probe_busy(rt::Time decode_ns_per_kb, std::size_t max_batch) {
  rt::Runtime rt;
  StreamConfig cfg;
  cfg.frames = 300;
  MpegFileSource src("m.mpg", cfg);
  MpegDecoder decoder("decoder");
  decoder.set_cost_per_kb(decode_ns_per_kb);  // heavy, long data function
  ProbeTarget target("target");
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = max_batch});
  VideoDisplay display("display");
  auto ch = src >> pump >> decoder >> target >> display;
  Realization real(rt, ch.pipeline());
  real.start();
  // Run into the middle of a decode: with ~8 ms per I frame the pipeline is
  // essentially always inside a data function.
  rt.run_until(rt::milliseconds(101));
  const rt::Time posted = rt.now();
  real.post_event_to(target, Event{kEvProbe});
  rt.run_until(rt::seconds(30));
  obsbench::capture(rt, "probe_busy");
  return target.handled_at - posted;
}

/// Latency while the section's thread is blocked pushing into a full buffer.
rt::Time probe_blocked() {
  rt::Runtime rt;
  MpegFileSource src("m.mpg", StreamConfig{.frames = 3000});
  ProbeTarget target("target");
  FreeRunningPump fill("fill");
  Buffer buf("buf", 2, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 2.0);  // glacial consumer: fill blocks hard
  VideoDisplay display("display");
  auto ch = src >> target >> fill >> buf >> drain >> display;
  Realization real(rt, ch.pipeline());
  real.start();
  rt.run_until(rt::milliseconds(700));  // fill is now blocked mid-push
  const rt::Time posted = rt.now();
  real.post_event_to(target, Event{kEvProbe});
  rt.run_until(rt::milliseconds(1400));
  obsbench::capture(rt, "probe_blocked");
  return target.handled_at - posted;
}

void report(const char* label, rt::Time ns) {
  if (ns < 0) {
    std::printf("  %-28s NOT DELIVERED\n", label);
  } else {
    std::printf("  %-28s %10.3f ms\n", label, static_cast<double>(ns) / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  obsbench::strip_metrics_flag(argc, argv);
  std::puts("E6  control-event latency by pipeline state");
  report("idle (between cycles):", probe_idle());
  report("busy (light decode, 1us/kB):", probe_busy(1000, 1));
  report("busy (heavy decode, 1ms/kB):", probe_busy(1000 * 1000, 1));
  report("busy (heavy, platform burst):", probe_busy(1000 * 1000, 0));
  report("blocked in push (full buf):", probe_blocked());
  std::puts("");
  std::puts("  expected shape: idle and blocked deliver at the next dispatch");
  std::puts("  point (~0 ms); busy waits for at most one data function (one");
  std::puts("  burst of at most 64 items when the platform picks the burst), so");
  std::puts("  the latency scales with per-item decode cost, NOT with queue length.");
  obsbench::write_metrics();
  return 0;
}
