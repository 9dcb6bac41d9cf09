// tcp_video: the paper's Figure 1 player across a real loopback socket.
//
//   shard 0: cam -> gen -> ingress -> pump -> drop(0) -> marshal -> tx
//   shard 1: rx -> unmarshal -> decoder -> play(64) -> pump -> screen
//
// One ShardGroup(2), one rt::IoBridge per shard, and each SocketTransport
// created on its own shard through run_on; each half is an ordinary
// Realization on its shard's runtime. Frames are 1.5-12 KB (the GOP's
// I/P/B sizes, varied by the seed), so the work is net — frame encode,
// send/recv syscalls, readiness re-arms — and byte blocks in mem. It is
// the only workload that touches net.
//
// The transport queues without bound, so the closed loop is windowed: the
// camera holds at most kMaxInFlight frames between itself and the screen.
#include <memory>

#include "core/realization.hpp"
#include "media/mpeg.hpp"
#include "net/netpipe.hpp"
#include "net/socket_transport.hpp"
#include "rt/io_bridge.hpp"
#include "shard/shard_group.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace infopipe;
using media::VideoFrame;

constexpr std::size_t kBatch = 32;
constexpr std::uint64_t kMaxInFlight = 512;
constexpr std::size_t kPlayCapacity = 64;
/// Offered rate of the open loop (about half the measured capacity,
/// rounded down to a 1-2-5 step).
constexpr double kOfferedRate = 50'000.0;

// Boundaries: 0 due | 1 gen.start | 2 gen.end | 3 gen out | 4 ingress out
// | 5 drop out | 6 marshal out | 7 rx out | 8 unmarshal out
// | 9 decoder out | 10 play out | 11 screen.
const std::vector<std::string> kSpans = {
    "core.pump_late", "mem.make",      "core.batch", "core.buffer_wait",
    "core.pump",      "net.marshal",   "net.wire",   "net.unmarshal",
    "app.decode",     "core.buffer_wait", "core.sink"};

/// FNV-1a over what a frame means — every field the wire must carry
/// (decoder flags excluded) plus the item's seq and kind.
struct FrameDigest {
  std::uint64_t h = 1469598103934665603ull;
  void word(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add(const VideoFrame& f, const Item& x) noexcept {
    word(f.frame_no);
    word(static_cast<std::uint64_t>(f.type));
    word(static_cast<std::uint64_t>(f.width));
    word(static_cast<std::uint64_t>(f.height));
    word(static_cast<std::uint64_t>(f.pts));
    word(f.compressed_bytes);
    word(f.content_id);
    word(f.ref);
    word(x.seq);
    word(static_cast<std::uint64_t>(x.kind));
  }
};

/// The sink: checks order, decode and digest, records latency from the
/// due time, and returns a window credit per frame.
class Screen final : public PassiveSink {
 public:
  Screen(const GenPump* clock, TraceBook* book)
      : PassiveSink("screen"), clock_(clock), book_(book) {}

  void measure_from(std::uint64_t seq) noexcept { measure_from_ = seq; }
  [[nodiscard]] bool eos() const noexcept {
    return eos_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Ns eos_at() const noexcept { return eos_at_; }
  [[nodiscard]] std::uint64_t ok() const noexcept { return ok_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_.h; }
  [[nodiscard]] const WindowedLatency& latency() const noexcept {
    return lat_;
  }
  [[nodiscard]] const std::atomic<std::uint64_t>& delivered() const noexcept {
    return delivered_;
  }

 protected:
  void consume(Item x) override {
    const Ns t = now_ns();
    const VideoFrame* f = x.payload<VideoFrame>();
    if (f != nullptr) {
      digest_.add(*f, x);
      if (x.seq == expect_ && f->frame_no == x.seq && f->decoded &&
          !f->corrupt) {
        ++ok_;
      }
    }
    expect_ = x.seq + 1;
    delivered_.fetch_add(1, std::memory_order_release);
    if (clock_ == nullptr) return;
    const Ns due = clock_->due(x.seq);
    if (x.seq >= measure_from_) lat_.record(due - clock_->t0(), t - due);
    if (book_ != nullptr && TraceBook::sampled(x.seq)) {
      book_->mark(x.seq / TraceBook::kEvery, 0, due);
      book_->mark(x.seq / TraceBook::kEvery, book_->boundaries() - 1, t);
    }
  }
  void on_eos() override {
    eos_at_ = now_ns();
    eos_.store(true, std::memory_order_release);
  }

 private:
  const GenPump* clock_;
  TraceBook* book_;
  std::uint64_t measure_from_ = 0;
  std::uint64_t expect_ = 0;
  std::uint64_t ok_ = 0;
  FrameDigest digest_;
  WindowedLatency lat_;
  std::atomic<std::uint64_t> delivered_{0};
  Ns eos_at_ = 0;
  std::atomic<bool> eos_{false};
};

/// The Figure 1 source, digesting the frames it emits (the reference the
/// screen's digest must match) and holding at most kMaxInFlight frames in
/// flight.
class Camera final : public media::MpegFileSource {
 public:
  Camera(media::StreamConfig cfg, const Screen& screen, TraceBook* book)
      : MpegFileSource("cam", std::move(cfg)), screen_(&screen), book_(book) {}

  void set_deadline(Ns t) noexcept { deadline_ = t; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_.h; }

 protected:
  Item generate() override {
    if (deadline_ != 0 && now_ns() >= deadline_) return Item::eos();
    while (produced() - screen_->delivered().load(std::memory_order_acquire) >=
           kMaxInFlight) {
      realization()->runtime().sleep_for(rt::microseconds(20));
    }
    const std::uint64_t k = produced();
    const bool traced = book_ != nullptr && TraceBook::sampled(k);
    const Ns t0 = traced ? now_ns() : 0;
    Item x = MpegFileSource::generate();
    if (const VideoFrame* f = x.payload<VideoFrame>()) digest_.add(*f, x);
    if (traced) {
      book_->mark(k / TraceBook::kEvery, 1, t0);
      book_->mark(k / TraceBook::kEvery, 2, now_ns());
    }
    return x;
  }

 private:
  const Screen* screen_;
  TraceBook* book_;
  Ns deadline_ = 0;
  FrameDigest digest_;
};

/// One instance of the player: group, bridges, transports, both halves.
struct Rig {
  shard::ShardGroup group{2};
  std::unique_ptr<rt::IoBridge> io0, io1;
  std::unique_ptr<net::SocketTransport> tx, rx;

  Screen screen;
  Camera cam;
  std::unique_ptr<Pump> gen;
  Buffer ingress;
  FreeRunningPump pump{PumpSpec{.name = "pump", .max_batch = kBatch}};
  media::FrameDropFilter drop{"drop"};
  net::MarshalFilter marshal{"marshal", media::encode_frame, "video"};
  std::unique_ptr<net::NetSender> sender;
  std::unique_ptr<net::NetReceiver> receiver;
  net::UnmarshalFilter unmarshal{"unmarshal", media::decode_frame, "video"};
  media::MpegDecoder decoder{"decoder"};
  Buffer play{"play", kPlayCapacity};
  FreeRunningPump play_pump{"play-pump"};
  std::vector<std::unique_ptr<Probe>> probes;
  Pipeline send_pipe, recv_pipe;
  std::unique_ptr<Realization> send_real, recv_real;

  Rig(media::StreamConfig cfg, std::unique_ptr<Pump> g, std::size_t ingress_cap,
      const GenPump* clock, TraceBook* book)
      : screen(clock, book),
        cam(std::move(cfg), screen, book),
        gen(std::move(g)),
        ingress("ingress", ingress_cap) {
    group.launch();
    // The bridges' poller threads start here, on the bench thread's CPU;
    // started from a shard thread they would inherit its pinning and
    // compete with it for the shard's CPU.
    io0 = std::make_unique<rt::IoBridge>(group.runtime(0));
    io1 = std::make_unique<rt::IoBridge>(group.runtime(1));
    group.run_on(1, [this] {
      rx = net::SocketTransport::listen(group.runtime(1), *io1, {});
    });
    const std::uint16_t port =
        group.call_on(1, [this] { return rx->local_port(); });
    group.run_on(0, [this, port] {
      net::SocketConfig c;
      c.port = port;
      tx = net::SocketTransport::connect(group.runtime(0), *io0, c);
    });
    sender = std::make_unique<net::NetSender>("tx", *tx, "shard0");
    receiver = std::make_unique<net::NetReceiver>("rx", *rx, "shard0");

    int boundary = 3;
    auto chain = [&](Pipeline& p, std::initializer_list<Component*> path,
                     std::initializer_list<bool> probe_after) {
      auto c = path.begin();
      auto probe = probe_after.begin();
      Component* prev = *c;
      for (++c; c != path.end(); ++c, ++probe) {
        if (*probe && book != nullptr) {
          probes.push_back(std::make_unique<Probe>(
              "probe" + std::to_string(boundary), *book, boundary));
          p.connect(*prev, 0, *probes.back(), 0);
          prev = probes.back().get();
        }
        if (*probe) ++boundary;
        p.connect(*prev, 0, **c, 0);
        prev = *c;
      }
    };
    chain(send_pipe,
          {&cam, gen.get(), &ingress, &pump, &drop, &marshal, sender.get()},
          {false, true, true, false, true, true});
    chain(recv_pipe,
          {receiver.get(), &unmarshal, &decoder, &play, &play_pump, &screen},
          {true, true, true, true, false});
  }

  ~Rig() { group.stop(); }  // before any member the shard threads use dies

  [[nodiscard]] bool connected() {
    return group.call_on(0, [this] { return tx->connected(); }) &&
           group.call_on(1, [this] { return rx->connected(); });
  }

  /// Realizes both halves, each on its own shard; returns the seconds the
  /// two realization constructors took.
  double realize() {
    const Ns t = now_ns();
    group.run_on(1, [this] {
      recv_real = std::make_unique<Realization>(group.runtime(1), recv_pipe);
    });
    group.run_on(0, [this] {
      send_real = std::make_unique<Realization>(group.runtime(0), send_pipe);
    });
    return static_cast<double>(now_ns() - t) / 1e9;
  }

  void start() {
    group.run_on(1, [this] { recv_real->start(); });
    group.run_on(0, [this] { send_real->start(); });
  }

  [[nodiscard]] std::size_t plan_threads() const {
    return send_real->plan_info().threads + recv_real->plan_info().threads;
  }

};

class TcpVideo final : public Workload {
 public:
  explicit TcpVideo(const Args& a) : seed_(a.seed) {}

  [[nodiscard]] std::vector<std::string> spans() const override {
    return kSpans;
  }
  [[nodiscard]] double offered_rate() const override { return kOfferedRate; }

  Phase closed(const ClosedSpec& s) override {
    Phase p;
    TraceBook none(kSpans, 0);
    const SetupClock setup;
    Rig rig(stream(s.items == 0 ? std::uint64_t{1} << 62 : s.items),
            std::make_unique<FreeRunningPump>(
                PumpSpec{.name = "gen", .max_batch = kBatch}),
            256, nullptr, s.traced ? &none : nullptr);
    if (!wait_for([&] { return rig.connected(); }, 10.0)) {
      p.errors.emplace_back("tcp_video: loopback connect timed out");
      return p;
    }
    p.realize_s = rig.realize();
    p.plan_threads = rig.plan_threads();
    const std::uint64_t sys0 = io_syscalls();
    const Ns t_start = now_ns();
    rig.start();
    setup.stop(p);
    if (s.items == 0) {
      rig.cam.set_deadline(now_ns() + static_cast<Ns>(s.seconds * 1e9));
    }
    if (!wait_for([&] { return rig.screen.eos(); }, s.seconds * 10 + 30)) {
      p.errors.emplace_back("tcp_video: no end of stream");
    }
    const std::uint64_t syscalls = io_syscalls() - sys0;
    rig.group.stop();
    finish(rig, p);
    p.moved = p.ok;
    p.busy_s = static_cast<double>(rig.screen.eos_at() - t_start) / 1e9;
    if (s.traced) p.layer = closed_layer(rig, p.ok, syscalls);
    return p;
  }

  Phase open(const OpenSpec& s) override {
    Phase p;
    const auto burst = static_cast<std::size_t>(kOfferedRate / 1000.0);
    const auto ticks = static_cast<std::uint64_t>(s.seconds * 1000.0);
    const SetupClock setup;
    auto gen = std::make_unique<GenPump>(burst);
    const GenPump* clock = gen.get();
    Rig rig(stream(ticks * burst), std::move(gen),
            std::max<std::size_t>(256, 4 * burst), clock, s.book);
    const std::uint64_t warm = GenPump::warmup_ticks(ticks);
    rig.screen.measure_from(warm * burst);
    if (!wait_for([&] { return rig.connected(); }, 10.0)) {
      p.errors.emplace_back("tcp_video: loopback connect timed out");
      return p;
    }
    p.realize_s = rig.realize();
    p.plan_threads = rig.plan_threads();
    // Sampled only when traced: the round trips would count as set-up.
    const ShardSample before =
        s.book ? sample_shards(rig.group) : ShardSample{};
    rig.start();
    setup.stop(p);
    CpuMeter cpu(
        [&rig] {
          return rig.screen.delivered().load(std::memory_order_relaxed);
        },
        now_ns() + static_cast<Ns>(warm) * GenPump::kTick);
    if (!wait_for([&] { return rig.screen.eos(); }, s.seconds * 3 + 30)) {
      p.errors.emplace_back("tcp_video: no end of stream");
    }
    cpu.stop();
    const ShardSample after = sample_shards(rig.group);
    rig.group.stop();
    finish(rig, p);
    p.cpu_us_per_item = cpu.us_per_item();
    p.latency = rig.screen.latency();
    if (s.book != nullptr) p.layer = shard_rates(before, after);
    return p;
  }

 private:
  [[nodiscard]] media::StreamConfig stream(std::uint64_t frames) const {
    media::StreamConfig c;
    c.frames = frames;
    c.seed = seed_;  // drives the frame-size variation
    return c;
  }

  static void finish(const Rig& rig, Phase& p) {
    p.attempted = rig.cam.produced();
    p.ok = rig.screen.ok();
    if (!rig.screen.eos()) {
      p.errors.emplace_back("tcp_video: no end of stream");
    } else if (rig.screen.digest() != rig.cam.digest()) {
      p.errors.emplace_back(
          "tcp_video: screen digest differs from the emitted frames");
    }
    if (rig.decoder.stats().corrupt != 0) {
      p.errors.emplace_back("tcp_video: decoder reported corrupt frames");
    }
  }

  static std::vector<Metric> closed_layer(Rig& rig, std::uint64_t frames,
                                          std::uint64_t syscalls) {
    const double n = static_cast<double>(std::max<std::uint64_t>(frames, 1));
    std::vector<Metric> out = runtime_counters(
        {&rig.group.runtime(0), &rig.group.runtime(1)}, frames);
    for (Metric& m : buffer_blocks({rig.send_real->stats_snapshot(),
                                    rig.recv_real->stats_snapshot()},
                                   frames)) {
      out.push_back(std::move(m));
    }
    out.push_back(
        {"net.rw_syscalls_per_frame", static_cast<double>(syscalls) / n, ""});
    out.push_back({"net.partial_writes_per_frame",
                   static_cast<double>(rig.tx->stats().partial_writes) / n,
                   ""});
    return out;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_tcp_video(const Args& a) {
  return std::make_unique<TcpVideo>(a);
}

}  // namespace e2e
