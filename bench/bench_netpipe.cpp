// E8 — netpipes and marshalling (§2.4): the cost of crossing the netpipe
// boundary (marshal → transport → unmarshal) relative to a local hand-off,
// and the simulated link's bandwidth/latency behaviour.
//
// Part 1 (google-benchmark, wall clock): middleware overhead per item for a
// local pipeline vs the same pipeline with a netpipe in the middle, plus
// the raw codec cost.
// Part 2 (virtual clock, printed): delivered throughput vs configured
// bandwidth — the link must saturate at the configured rate — and one-way
// latency vs configured propagation delay.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/infopipes.hpp"
#include "media/mpeg.hpp"
#include "net/netpipe.hpp"
#include "net/reliable.hpp"

#include "bench_obs.hpp"

using namespace infopipe;
using namespace infopipe::media;

namespace {

StreamConfig bench_stream(std::uint64_t frames) {
  StreamConfig c;
  c.frames = frames;
  return c;
}

void BM_CodecEncodeDecode(benchmark::State& state) {
  VideoFrame f;
  f.frame_no = 7;
  f.type = FrameType::kP;
  f.compressed_bytes = 4000;
  Item x = Item::of<VideoFrame>(f);
  for (auto _ : state) {
    const Item wire = encode_frame(x);
    Item y = decode_frame({wire.bytes_data(), wire.bytes_size()});
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_CodecEncodeDecode);

void BM_LocalPipeline(benchmark::State& state) {
  constexpr std::uint64_t kFrames = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    rt::Runtime rt;
    MpegFileSource src("m.mpg", bench_stream(kFrames));
    FreeRunningPump pump("pump");
    MpegDecoder dec("dec");
    VideoDisplay display("display");
    auto ch = src >> pump >> dec >> display;
    Realization real(rt, ch.pipeline());
    real.start();
    state.ResumeTiming();
    rt.run();
    state.PauseTiming();
    obsbench::capture(rt, "BM_LocalPipeline");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kFrames));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_LocalPipeline)->Unit(benchmark::kMillisecond);

void BM_NetpipePipeline(benchmark::State& state) {
  constexpr std::uint64_t kFrames = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    rt::Runtime rt;
    MpegFileSource src("m.mpg", bench_stream(kFrames));
    FreeRunningPump pump("pump");
    net::MarshalFilter marshal("marshal", encode_frame, "video");
    net::LinkConfig lc;
    lc.bandwidth_bps = 1e12;  // effectively infinite: isolate CPU overhead
    lc.base_latency = 0;
    // A free-running sender is infinitely fast in virtual time; give the
    // queue room for the whole burst so no packet drops distort the count.
    lc.queue_capacity_bytes = std::size_t{1} << 30;
    net::SimLink link(lc);
    net::NetSender tx("tx", link, "a");
    net::NetReceiver rx("rx", link, "b");
    net::UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
    MpegDecoder dec("dec");
    VideoDisplay display("display");
    Pipeline p;
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, unmarshal, 0);
    p.connect(unmarshal, 0, dec, 0);
    p.connect(dec, 0, display, 0);
    Realization real(rt, p);
    real.start();
    state.ResumeTiming();
    rt.run();
    state.PauseTiming();
    obsbench::capture(rt, "BM_NetpipePipeline");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kFrames));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_NetpipePipeline)->Unit(benchmark::kMillisecond);

void print_link_behaviour() {
  std::puts("\nE8.2  simulated link: delivered throughput vs bandwidth");
  std::puts("  configured Mbps | offered Mbps | delivered Mbps");
  for (double bw : {0.5e6, 1e6, 2e6, 8e6}) {
    rt::Runtime rt;
    StreamConfig cfg = bench_stream(900);  // ~0.9 Mbps offered at 30 fps
    MpegFileSource src("m.mpg", cfg);
    ClockedPump pump("pump", cfg.fps);
    net::MarshalFilter marshal("marshal", encode_frame, "video");
    net::LinkConfig lc;
    lc.bandwidth_bps = bw;
    lc.queue_capacity_bytes = 32 * 1024;
    net::SimLink link(lc);
    net::NetSender tx("tx", link, "a");
    net::NetReceiver rx("rx", link, "b");
    net::UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
    CountingSink sink("sink");
    Pipeline p;
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, unmarshal, 0);
    p.connect(unmarshal, 0, sink, 0);
    Realization real(rt, p);
    real.start();
    rt.run();
    const double seconds = static_cast<double>(rt.now()) / 1e9;
    const double offered =
        static_cast<double>(link.stats().bytes_sent +
                            /* dropped bytes approx */ 0) * 8 / seconds;
    const double delivered =
        static_cast<double>(link.stats().bytes_sent) * 8 / seconds;
    (void)offered;
    std::printf("  %10.1f     |    ~0.91     | %8.2f   (%llu of %llu pkts)\n",
                bw / 1e6, delivered / 1e6,
                static_cast<unsigned long long>(
                    link.stats().delivered_scheduled),
                static_cast<unsigned long long>(link.stats().sent));
  }

  std::puts("\nE8.3  one-way latency vs configured propagation delay");
  std::puts("  configured ms | measured first-frame ms");
  for (auto lat_ms : {5, 20, 80}) {
    rt::Runtime rt;
    StreamConfig cfg = bench_stream(10);
    MpegFileSource src("m.mpg", cfg);
    ClockedPump pump("pump", cfg.fps);
    net::MarshalFilter marshal("marshal", encode_frame, "video");
    net::LinkConfig lc;
    lc.bandwidth_bps = 1e9;
    lc.base_latency = rt::milliseconds(lat_ms);
    net::SimLink link(lc);
    net::NetSender tx("tx", link, "a");
    net::NetReceiver rx("rx", link, "b");
    net::UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
    CollectorSink sink("sink");
    Pipeline p;
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, unmarshal, 0);
    p.connect(unmarshal, 0, sink, 0);
    Realization real(rt, p);
    real.start();
    rt.run();
    const double first_ms =
        static_cast<double>(sink.arrivals().front().at) / 1e6;
    std::printf("  %9d     | %10.3f\n", lat_ms, first_ms);
  }
}

void print_protocol_comparison() {
  std::puts("\nE8.4  two protocols, one lossy network (15% loss): the §2.4");
  std::puts("      trade-off a pluggable netpipe exists to expose");
  std::puts("  protocol    | frames | corrupt | worst frame delay | retransmissions");
  for (bool reliable : {false, true}) {
    rt::Runtime rt;
    StreamConfig cfg = bench_stream(600);
    MpegFileSource src("m.mpg", cfg);
    ClockedPump pump("pump", cfg.fps);
    net::MarshalFilter marshal("marshal", encode_frame, "video");
    net::LinkConfig lc;
    lc.bandwidth_bps = 10e6;
    lc.base_latency = rt::milliseconds(15);
    lc.random_loss = 0.15;
    lc.seed = 5;
    net::SimLink fwd(lc);
    net::LinkConfig ack;
    ack.bandwidth_bps = 10e6;
    ack.base_latency = rt::milliseconds(15);
    net::SimLink rev(ack);
    net::ReliableTransport arq(rt, fwd, rev, rt::milliseconds(70));
    net::Transport& transport = reliable
                                    ? static_cast<net::Transport&>(arq)
                                    : static_cast<net::Transport&>(fwd);
    net::NetSender tx("tx", transport, "a");
    net::NetReceiver rx("rx", transport, "b");
    net::UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
    MpegDecoder dec("dec");
    VideoDisplay display("display", cfg.fps);
    Pipeline p;
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, unmarshal, 0);
    p.connect(unmarshal, 0, dec, 0);
    p.connect(dec, 0, display, 0);
    Realization real(rt, p);
    real.start();
    rt.run();

    // Transit latency = arrival - pts (frames leave on the 30 Hz grid).
    const double worst_ms = display.stats().mean_latency_ms;
    std::printf("  %s |  %4llu  |  %4llu   |  mean %7.1f ms   | %llu\n",
                reliable ? "reliable   " : "best-effort",
                static_cast<unsigned long long>(display.stats().displayed),
                static_cast<unsigned long long>(display.stats().corrupt),
                worst_ms,
                static_cast<unsigned long long>(
                    reliable ? arq.stats().retransmissions : 0));
  }
  std::puts("  expected shape: best-effort loses/corrupts frames but keeps");
  std::puts("  delay near the propagation latency; reliable delivers all 600");
  std::puts("  at the cost of RTO-sized delay spikes (and higher mean).");
}

}  // namespace

int main(int argc, char** argv) {
  obsbench::strip_metrics_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_link_behaviour();
  print_protocol_comparison();
  obsbench::write_metrics();
  return 0;
}
