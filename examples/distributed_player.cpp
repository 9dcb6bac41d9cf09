// Distributed player: the full §2.4 story across REAL process boundaries.
//
// Run with no arguments and this binary becomes three cooperating roles:
//
//   1. A single-process reference run over SimLink computes the stream
//      digest (FNV-1a over every marshalled packet's payload bytes + seq +
//      kind — timestamps are clock-dependent and excluded).
//   2. It then fork+execs itself twice: `--server` (a Node with a camera
//      factory behind a TCP control link, plus a TCP data link) and
//      `--client` (RemoteNode creates the camera through the middleware
//      factory protocol, queries its Typespec in marshalled form across the
//      socket, negotiates the flow, then plays the stream).
//   3. The client verifies its digest against the reference: the item
//      stream that crossed loopback TCP between two OS processes must be
//      byte-identical to the one that crossed the in-process SimLink.
//
// --sim runs only the single-process SimLink reference: same digest, no
// sockets, no child processes.
//
//   distributed_player                 orchestrate sim + server + client
//   distributed_player --sim           single-process SimLink run only
//   distributed_player --server --port P [--frames N]
//   distributed_player --client --port P [--frames N] [--expect HEX]
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/infopipes.hpp"
#include "media/mpeg.hpp"
#include "net/binder.hpp"
#include "net/netpipe.hpp"
#include "net/node.hpp"
#include "net/remote_node.hpp"
#include "net/socket_transport.hpp"
#include "rt/io_bridge.hpp"

using namespace infopipe;
using namespace infopipe::media;
using namespace infopipe::net;

namespace {

constexpr std::uint64_t kDefaultFrames = 300;
constexpr double kPumpHz = 200.0;  ///< wall-clock pace of the real-net run

/// Server-side source type, offering a typed flow.
class Camera : public MpegFileSource {
 public:
  Camera(const std::string& name, std::uint64_t frames)
      : MpegFileSource(name, [frames] {
          StreamConfig c;
          c.frames = frames;
          return c;
        }()) {}
};

/// Client-side display with explicit requirements.
class Screen : public VideoDisplay {
 public:
  explicit Screen(const std::string& name) : VideoDisplay(name, 30.0) {}
  Typespec input_requirement(int) const override {
    return Typespec{{props::kItemType, std::string("video")},
                    {props::kFormats, StringSet{"raw"}},
                    {props::kFrameRate, Range{10, 60}}};
  }
};

/// FNV-1a 64 over the marshalled stream. Hashed per data item, in arrival
/// order: payload bytes, then seq and kind as explicit big-endian words.
/// Timestamps are deliberately NOT hashed — they differ between a SimClock
/// run and a RealClock run while the information content does not.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void update(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void update_u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 7; i >= 0; --i) {
      b[i] = static_cast<std::uint8_t>(v & 0xFF);
      v >>= 8;
    }
    update(b, sizeof b);
  }
};

/// Pass-through tap on the byte flow between the netpipe receiver and the
/// unmarshalling filter: digests exactly what crossed the link.
class DigestTap : public FunctionComponent {
 public:
  explicit DigestTap(std::string name) : FunctionComponent(std::move(name)) {}

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_.h; }
  [[nodiscard]] std::uint64_t items() const noexcept { return n_; }

 protected:
  Item convert(Item x) override {
    if (const std::uint8_t* p = x.bytes_data()) {
      h_.update(p, x.bytes_size());
    }
    h_.update_u64(x.seq);
    h_.update_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x.kind)));
    ++n_;
    return x;
  }

 private:
  Fnv1a h_;
  std::uint64_t n_ = 0;
};

struct StreamResult {
  std::uint64_t digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t displayed = 0;
};

/// Drives a RealClock runtime in small slices until `done` or the budget
/// runs out — socket events enter through post_external between slices.
template <typename Pred>
bool drive_until(rt::Runtime& rtm, Pred done, rt::Time budget) {
  const rt::Time deadline = rtm.now() + budget;
  while (!done()) {
    if (rtm.now() >= deadline) return false;
    rtm.run_until(rtm.now() + rt::milliseconds(5));
  }
  return true;
}

std::string hex64(std::uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}

// ---- single-process reference run (SimLink, virtual time) -------------------------

StreamResult run_sim(std::uint64_t frames) {
  rt::Runtime rtm;  // SimClock: the whole stream plays in virtual time

  Node server(rtm, "video-server");
  Node client(rtm, "living-room");
  server.register_factory(
      "camera", [](const std::string& name, const std::string& args) {
        return std::make_unique<Camera>(
            name, args.empty() ? kDefaultFrames : std::stoul(args));
      });

  // Remote creation over the in-process node protocol.
  const std::string cam_name =
      remote_create(rtm, server, "camera", "cam0", std::to_string(frames));
  auto* cam = dynamic_cast<Camera*>(server.lookup(cam_name));
  client.adopt(std::make_unique<Screen>("screen"));
  auto* screen = dynamic_cast<Screen*>(client.lookup("screen"));

  // A generous, jitter-free link: the reference stream must arrive intact.
  LinkConfig lc;
  lc.bandwidth_bps = 1e9;
  lc.base_latency = rt::milliseconds(1);
  lc.jitter = rt::Time{0};
  SimLink link(lc);

  ClockedPump send_pump("send-pump", kPumpHz);
  MarshalFilter marshal("marshal", encode_frame, "video");
  NetSender tx("tx", link, server.name());
  NetReceiver rx("rx", link, client.name());
  DigestTap tap("digest");
  UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
  MpegDecoder decoder("decoder");

  Pipeline p;
  p.connect(*cam, 0, send_pump, 0);
  p.connect(send_pump, 0, marshal, 0);
  p.connect(marshal, 0, tx, 0);
  p.connect(rx, 0, tap, 0);
  p.connect(tap, 0, unmarshal, 0);
  p.connect(unmarshal, 0, decoder, 0);
  p.connect(decoder, 0, *screen, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();

  return {tap.digest(), tap.items(), screen->stats().displayed};
}

// ---- server process ---------------------------------------------------------------

int run_server(std::uint16_t port, std::uint64_t frames) {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};

  // Two listening sockets: the control link carries the factory/Typespec
  // protocol, the data link carries the marshalled stream.
  SocketConfig ctl_cfg;
  ctl_cfg.port = port;
  auto ctl = SocketTransport::listen(rtm, io, ctl_cfg);
  SocketConfig data_cfg;
  data_cfg.port = static_cast<std::uint16_t>(port + 1);
  auto data = SocketTransport::listen(rtm, io, data_cfg);

  Node node(rtm, "video-server");
  node.register_factory(
      "camera", [](const std::string& name, const std::string& args) {
        return std::make_unique<Camera>(
            name, args.empty() ? kDefaultFrames : std::stoul(args));
      });
  NodeServer srv(rtm, node, *ctl);

  // START arrives on the transport's agent thread; the pipeline is built
  // from the main loop so realization happens outside the handler.
  std::string cam_name;
  srv.on_start([&](const std::string& args) {
    cam_name = args.empty() ? std::string("cam0") : args;
    return "starting " + cam_name;
  });

  std::printf("[server %d] control :%u data :%u\n", getpid(),
              ctl->local_port(), data->local_port());

  std::unique_ptr<Pipeline> p;
  std::unique_ptr<ClockedPump> pump;
  std::unique_ptr<MarshalFilter> marshal;
  std::unique_ptr<NetSender> tx;
  std::unique_ptr<Realization> real;

  const rt::Time deadline = rtm.now() + rt::seconds(30);
  bool started = false;
  while (rtm.now() < deadline) {
    rtm.run_until(rtm.now() + rt::milliseconds(5));
    if (srv.start_requested() && !started) {
      auto* cam = dynamic_cast<Camera*>(node.lookup(cam_name));
      if (cam == nullptr) {
        std::fprintf(stderr, "[server] no camera '%s' to start\n",
                     cam_name.c_str());
        return 1;
      }
      pump = std::make_unique<ClockedPump>("send-pump", kPumpHz);
      marshal = std::make_unique<MarshalFilter>("marshal", encode_frame,
                                                "video");
      tx = std::make_unique<NetSender>("tx", *data, node.name());
      p = std::make_unique<Pipeline>();
      p->connect(*cam, 0, *pump, 0);
      p->connect(*pump, 0, *marshal, 0);
      p->connect(*marshal, 0, *tx, 0);
      real = std::make_unique<Realization>(rtm, *p);
      real->start();
      started = true;
      std::printf("[server] flow started: %" PRIu64 " frames over %s\n",
                  frames, data->kind().c_str());
    }
    if (started && data->eos_flushed()) {
      std::printf("[server] stream flushed: %" PRIu64 " frames, %" PRIu64
                  " bytes\n",
                  data->stats().frames_sent, data->stats().bytes_sent);
      return 0;
    }
  }
  std::fprintf(stderr, "[server] timed out (started=%d)\n", started ? 1 : 0);
  return 2;
}

// ---- client process ---------------------------------------------------------------

int run_client(std::uint16_t port, std::uint64_t frames,
               const std::string& expect) {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};

  // Control link first: connect retries with backoff until the server's
  // listener appears, so start order between the processes is free.
  SocketConfig ctl_cfg;
  ctl_cfg.port = port;
  auto ctl = SocketTransport::connect(rtm, io, ctl_cfg);
  RemoteNode server(rtm, *ctl, "video-server");

  // Remote creation through the real middleware protocol: the factory call
  // travels as a control frame, the reply names the component.
  const std::string cam_name =
      server.create("camera", "cam0", std::to_string(frames));
  std::printf("[client %d] created '%s' on remote node %s\n", getpid(),
              cam_name.c_str(), server.name().c_str());

  // The local half of the player, owned by a local node so the binder can
  // query both ends the same way.
  Node local(rtm, "living-room");
  local.adopt(std::make_unique<Screen>("screen"));
  auto* screen = dynamic_cast<Screen*>(local.lookup("screen"));
  LocalNodeEndpoint local_ep(rtm, local);

  // Data link (server listens on port+1).
  SocketConfig data_cfg;
  data_cfg.port = static_cast<std::uint16_t>(port + 1);
  auto data = SocketTransport::connect(rtm, io, data_cfg);

  // Negotiation across the socket: camera->screen directly fails (mpeg vs
  // raw) — the marshalled Typespecs cross the control link either way.
  EndpointBindingRequest breq;
  breq.producer_node = &server;
  breq.producer = cam_name;
  breq.consumer_node = &local_ep;
  breq.consumer = "screen";
  breq.link = data.get();
  const BindingResult direct = negotiate(rtm, breq);
  std::printf("[client] direct binding: %s\n",
              direct.ok ? "accepted (unexpected!)" : "rejected as expected");

  // With the decoder in the path the agreement is the camera's mpeg flow.
  MpegDecoder decoder("decoder");
  Typespec cam_offer = server.output_offer(cam_name, 0);
  auto agreed = cam_offer.intersect(decoder.input_requirement(0));
  std::printf("[client] negotiated flow into the decoder: %s\n",
              agreed ? agreed->to_string().c_str() : "(failed)");
  if (!agreed) return 1;

  NetReceiver rx("rx", *data, server.name());
  DigestTap tap("digest");
  UnmarshalFilter unmarshal("unmarshal", decode_frame, "video");
  Pipeline p;
  p.connect(rx, 0, tap, 0);
  p.connect(tap, 0, unmarshal, 0);
  p.connect(unmarshal, 0, decoder, 0);
  p.connect(decoder, 0, *screen, 0);
  Realization real(rtm, p);
  real.start();

  std::printf("[client] start_flow -> %s\n",
              server.start_flow(cam_name).c_str());

  if (!drive_until(rtm, [&] { return screen->eos(); }, rt::seconds(30))) {
    std::fprintf(stderr, "[client] timed out waiting for EOS (%" PRIu64
                 " frames seen)\n",
                 screen->stats().displayed);
    return 2;
  }

  const auto s = screen->stats();
  std::printf("[client] played %" PRIu64 " frames over %s (%s), %" PRIu64
              " corrupt\n",
              s.displayed, data->kind().c_str(), data->endpoint().c_str(),
              s.corrupt);
  std::printf("[client] digest %s over %" PRIu64 " packets\n",
              hex64(tap.digest()).c_str(), tap.items());

  if (s.displayed != frames || s.corrupt != 0) return 1;
  if (!expect.empty() && hex64(tap.digest()) != expect) {
    std::fprintf(stderr,
                 "[client] DIGEST MISMATCH: got %s, reference %s\n",
                 hex64(tap.digest()).c_str(), expect.c_str());
    return 1;
  }
  return 0;
}

// ---- orchestrator -----------------------------------------------------------------

pid_t spawn_role(const char* role, std::uint16_t port, std::uint64_t frames,
                 const std::string& expect) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const std::string port_s = std::to_string(port);
  const std::string frames_s = std::to_string(frames);
  if (expect.empty()) {
    execl("/proc/self/exe", "distributed_player", role, "--port",
          port_s.c_str(), "--frames", frames_s.c_str(),
          static_cast<char*>(nullptr));
  } else {
    execl("/proc/self/exe", "distributed_player", role, "--port",
          port_s.c_str(), "--frames", frames_s.c_str(), "--expect",
          expect.c_str(), static_cast<char*>(nullptr));
  }
  std::perror("execl");
  _exit(127);
}

int wait_role(pid_t pid, const char* role) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  std::fprintf(stderr, "%s terminated by signal %d\n", role,
               WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  return -1;
}

int run_orchestrator(std::uint64_t frames) {
  std::printf("=== reference: single process, SimLink, virtual time ===\n");
  const StreamResult ref = run_sim(frames);
  std::printf("sim digest %s over %" PRIu64 " packets, %" PRIu64
              " frames displayed\n",
              hex64(ref.digest).c_str(), ref.packets, ref.displayed);
  if (ref.displayed != frames) return 1;

  // Loopback port pair for this run: derived from the pid, rounded even so
  // port+1 (the data link) stays in range and distinct runs rarely collide.
  const auto port = static_cast<std::uint16_t>(
      40000 + (static_cast<unsigned>(getpid()) % 20000u & ~1u));

  std::printf("\n=== real: two OS processes over loopback TCP :%u/:%u ===\n",
              port, port + 1);
  const pid_t server = spawn_role("--server", port, frames, "");
  const pid_t client =
      spawn_role("--client", port, frames, hex64(ref.digest));
  const int client_rc = wait_role(client, "client");
  const int server_rc = wait_role(server, "server");

  if (client_rc == 0 && server_rc == 0) {
    std::printf("\nstream across real TCP is byte-identical to the SimLink "
                "reference (digest %s)\n",
                hex64(ref.digest).c_str());
    return 0;
  }
  std::fprintf(stderr, "\nreal-socket run failed: server rc=%d client rc=%d\n",
               server_rc, client_rc);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sim = false, is_server = false, is_client = false;
  std::uint16_t port = 0;
  std::uint64_t frames = kDefaultFrames;
  std::string expect;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--sim") sim = true;
    else if (a == "--server") is_server = true;
    else if (a == "--client") is_client = true;
    else if (a == "--port" && i + 1 < argc)
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    else if (a == "--frames" && i + 1 < argc) frames = std::stoul(argv[++i]);
    else if (a == "--expect" && i + 1 < argc) expect = argv[++i];
    else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 64;
    }
  }

  if (sim) {
    const StreamResult r = run_sim(frames);
    std::printf("sim digest %s over %" PRIu64 " packets, %" PRIu64
                " frames displayed\n",
                hex64(r.digest).c_str(), r.packets, r.displayed);
    return r.displayed == frames ? 0 : 1;
  }
  if (is_server) return run_server(port, frames);
  if (is_client) return run_client(port, frames, expect);
  return run_orchestrator(frames);
}
