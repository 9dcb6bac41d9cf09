// E9 — real-socket transport (ip_netreal): what crossing a REAL kernel
// socket costs relative to the in-process SimLink, on the same frame path.
//
// Part 1 (google-benchmark, wall clock): delivered items/s for a burst of
// fixed-size frames through (a) loopback TCP between two SocketTransports
// on one runtime and (b) a zero-latency SimLink — the latter is the pure
// middleware-CPU baseline, the delta is syscalls + copies + the io_bridge
// readiness round trip.
// Part 2 (printed): per-frame one-way latency over loopback TCP, one frame
// in flight at a time (no queueing): p50/p99/max. SimLink's latency is a
// configured property, so only the TCP side is measured here.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "rt/io_bridge.hpp"
#include "rt/runtime.hpp"

#include "bench_obs.hpp"

using namespace infopipe;
using namespace infopipe::net;

namespace {

constexpr std::size_t kPayloadBytes = 1024;
constexpr int kBurstItems = 2000;

Item payload_item(std::uint64_t seq) {
  std::vector<std::uint8_t> b(kPayloadBytes,
                              static_cast<std::uint8_t>(seq & 0xFF));
  Item x = Item::of_bytes(b.data(), b.size());
  x.seq = seq;
  x.kind = 1;
  return x;
}

/// Counts kMsgNetDeliver bursts and the items in them on a plain ULT.
struct Collector {
  std::uint64_t items = 0;
  std::uint64_t deliveries = 0;
  bool eos = false;
  rt::ThreadId tid = rt::kNoThread;

  void spawn(rt::Runtime& rtm) {
    tid = rtm.spawn("collect", rt::kPriorityData,
                    [this](rt::Runtime&, rt::Message m) {
                      if (m.type != kMsgNetDeliver) {
                        return rt::CodeResult::kContinue;
                      }
                      ++deliveries;
                      for (const Item& x : m.get<Burst>()->items()) {
                        if (x.is_eos()) {
                          eos = true;
                        } else {
                          ++items;
                        }
                      }
                      return rt::CodeResult::kContinue;
                    });
  }
};

template <typename Pred>
bool drive_until(rt::Runtime& rtm, Pred done,
                 rt::Time budget = rt::seconds(30)) {
  const rt::Time deadline = rtm.now() + budget;
  while (!done()) {
    if (rtm.now() >= deadline) return false;
    rtm.run_until(rtm.now() + rt::milliseconds(1));
  }
  return true;
}

struct TcpRig {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};
  std::unique_ptr<SocketTransport> server;
  std::unique_ptr<SocketTransport> client;

  TcpRig() {
    SocketConfig scfg;
    scfg.port = 0;
    server = SocketTransport::listen(rtm, io, scfg);
    SocketConfig ccfg;
    ccfg.port = server->local_port();
    client = SocketTransport::connect(rtm, io, ccfg);
  }
};

void BM_TcpLoopbackBurst(benchmark::State& state) {
  std::uint64_t frames = 0;
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TcpRig rig;
    Collector got;
    got.spawn(rig.rtm);
    rig.server->attach_receiver(got.tid);
    // Connect first: a burst sent while connecting would leave in the
    // connect-time flush, never through send()'s own write path.
    drive_until(rig.rtm, [&] {
      return rig.client->connected() && rig.server->connected();
    });
    state.ResumeTiming();
    for (int i = 0; i < kBurstItems; ++i) {
      rig.client->send(rig.rtm, payload_item(static_cast<std::uint64_t>(i)));
    }
    rig.client->send(rig.rtm, Item::eos());
    const bool ok = drive_until(rig.rtm, [&] { return got.eos; });
    state.PauseTiming();
    obsbench::capture(rig.rtm, "BM_TcpLoopbackBurst");
    if (!ok || got.items != kBurstItems) {
      state.SkipWithError("loopback burst did not complete");
      return;
    }
    frames += got.items;
    deliveries += got.deliveries;
    state.SetItemsProcessed(state.items_processed() + kBurstItems);
    state.SetBytesProcessed(state.bytes_processed() +
                            kBurstItems * static_cast<std::int64_t>(
                                              kPayloadBytes));
    state.ResumeTiming();
  }
  // Data frames per kMsgNetDeliver: one delivery carries a whole read.
  if (deliveries > 0) {
    state.counters["frames_per_delivery"] =
        static_cast<double>(frames) / static_cast<double>(deliveries);
  }
}
BENCHMARK(BM_TcpLoopbackBurst)->Unit(benchmark::kMillisecond);

/// Same burst through a zero-latency, effectively-infinite SimLink on a
/// virtual clock: pure middleware CPU, no kernel in the path.
void BM_SimLinkBurst(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rt::Runtime rtm;  // SimClock
    LinkConfig lc;
    lc.bandwidth_bps = 1e12;
    lc.base_latency = 0;
    lc.queue_capacity_bytes = std::size_t{1} << 30;
    SimLink link(lc);
    Collector got;
    got.spawn(rtm);
    link.attach_receiver(got.tid);
    state.ResumeTiming();
    for (int i = 0; i < kBurstItems; ++i) {
      link.send(rtm, payload_item(static_cast<std::uint64_t>(i)));
    }
    link.send(rtm, Item::eos());
    rtm.run();
    state.PauseTiming();
    if (got.items != kBurstItems) {
      state.SkipWithError("sim burst did not complete");
      return;
    }
    state.SetItemsProcessed(state.items_processed() + kBurstItems);
    state.SetBytesProcessed(state.bytes_processed() +
                            kBurstItems * static_cast<std::int64_t>(
                                              kPayloadBytes));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SimLinkBurst)->Unit(benchmark::kMillisecond);

void print_frame_latency() {
  std::puts("\nE9.2  loopback TCP per-frame one-way latency (one frame in");
  std::puts("      flight: send -> kMsgNetDeliver on the far runtime)");
  constexpr int kProbes = 1000;
  TcpRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  // Let the connection establish before probing.
  drive_until(rig.rtm, [&] { return rig.server->stats().accepts > 0; });

  std::vector<double> us;
  us.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t want = got.items + 1;
    const rt::Time t0 = rig.rtm.now();
    rig.client->send(rig.rtm, payload_item(static_cast<std::uint64_t>(i)));
    if (!drive_until(rig.rtm, [&] { return got.items >= want; },
                     rt::seconds(5))) {
      std::puts("  probe timed out");
      return;
    }
    us.push_back(static_cast<double>(rig.rtm.now() - t0) / 1e3);
  }
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    return us[static_cast<std::size_t>(q * (us.size() - 1))];
  };
  std::printf("  frames %d, payload %zu B: p50 %.1f us  p99 %.1f us  max "
              "%.1f us\n",
              kProbes, kPayloadBytes, at(0.50), at(0.99), us.back());
  std::puts("  note: the runtime polls readiness in 1 ms run_until slices,");
  std::puts("  so the floor is the slice, not the kernel's loopback time.");
}

}  // namespace

int main(int argc, char** argv) {
  obsbench::strip_metrics_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_frame_latency();
  obsbench::write_metrics();
  return 0;
}
