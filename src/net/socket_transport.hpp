// ip_netreal: a real-socket Transport (nonblocking TCP, optional UDP).
//
// Where SimLink simulates a best-effort link inside one process,
// SocketTransport carries the same netpipe traffic between OS processes
// over loopback or a real network. It plugs in underneath the existing
// netpipe machinery unchanged: NetSender::consume() calls send(), packets
// surface at the attached receiver thread as kMsgNetDeliver bursts, EOS
// is an explicit frame — the Transport contract SimLink keeps, so NetSender /
// NetReceiver, the marshalling filters and everything above them cannot
// tell the difference (the lockstep criterion of the distributed_player
// demo: byte-identical item streams either way).
//
// Mechanics. All socket I/O is nonblocking and driven through
// rt::IoBridge's one-shot readiness watches: the owning runtime's epoll set
// reports readability/writability, on the runtime's own thread, as messages
// to the transport's agent — a user-level thread on that runtime — which
// does the actual read()/write()/accept()/connect() completion, so the
// transport needs no locks of its own. Each drain runs to EAGAIN before it
// re-arms, which is what the bridge's edge-triggered watches rely on. send() appends to one outbound
// buffer and posts the agent one flush per burst; the agent (kPriorityData)
// does not preempt the sender, so a burst leaves in one send(2) when the
// sending section yields — at once on EOS, control frames, connect, or 64
// KiB unsent. Partial writes re-arm a writability watch. Inbound bytes are
// read (64 KiB at a time) straight into wire::FrameReader's buffer, which
// reassembles frames across arbitrary read() boundaries and rejects hostile
// input with RemoteError (the connection is then dropped, never the
// process). Every data frame one read parses is copied once, into its
// pooled payload block, and all of them (EOS last) leave as one Burst: one
// kMsgNetDeliver per read, not per frame. Frames parsed before
// attach_receiver() wait in the unsent burst, which attaching sends.
//
// Connection management: the active end (connect()) retries with
// exponential backoff until the peer appears — process start order between
// cooperating binaries is explicitly not a protocol; the passive end
// (listen()) accepts one peer at a time and goes back to accepting when
// the peer leaves. A peer that disappears without sending EOS yields a
// synthetic EOS to the attached receiver (plus a peer_resets stat), so a
// consumer pipeline terminates instead of hanging.
//
// Besides the data plane, the transport carries the node control protocol
// (Typespec queries, remote factories, start-of-flow) as control frames
// over the same connection; see net/remote_node.hpp for the client/server
// pair built on call_control()/set_control_handler().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "rt/io_bridge.hpp"
#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe::net {

struct SocketConfig {
  std::string host = "127.0.0.1";  ///< connect target / bind address
  std::uint16_t port = 0;          ///< 0 on listen: kernel-assigned
  bool udp = false;                ///< datagram mode (best-effort, no retry)
  rt::Time retry_initial = rt::milliseconds(50);  ///< first connect backoff
  rt::Time retry_max = rt::seconds(2);            ///< backoff ceiling
  std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  /// Nominal capacity reported through Transport::bandwidth() for the
  /// netpipe QoS mapping (loopback default: 1 Gbps).
  double nominal_bandwidth_bps = 1e9;
};

class SocketTransport : public Transport {
 public:
  /// Passive end: bind + listen (TCP) or bind (UDP) on cfg.host:cfg.port.
  /// Throws RemoteError when the address cannot be bound.
  static std::unique_ptr<SocketTransport> listen(rt::Runtime& rt,
                                                 rt::IoBridge& io,
                                                 SocketConfig cfg);

  /// Active end: nonblocking connect with retry+backoff until the peer
  /// exists (TCP) or set the default destination (UDP).
  static std::unique_ptr<SocketTransport> connect(rt::Runtime& rt,
                                                  rt::IoBridge& io,
                                                  SocketConfig cfg);

  /// Wraps an already-connected TCP socket (from SocketAcceptor) in a fully
  /// working transport: own agent ULT, own frame reader, state kConnected.
  /// Takes ownership of `fd` (must be nonblocking). This is how N peers get
  /// N independent transports instead of serializing on one listen-side
  /// transport's single connection slot.
  static std::unique_ptr<SocketTransport> adopt(rt::Runtime& rt,
                                                rt::IoBridge& io,
                                                SocketConfig cfg, int fd);

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // ---- Transport contract (what the netpipes see) -------------------------

  void attach_receiver(rt::ThreadId tid) override;
  void send(rt::Runtime& rt, Item packet) override;
  [[nodiscard]] double bandwidth() const override {
    return cfg_.nominal_bandwidth_bps;
  }
  [[nodiscard]] std::string kind() const override {
    return cfg_.udp ? "udp" : "tcp";
  }
  [[nodiscard]] std::string endpoint() const override {
    return cfg_.host + ":" + std::to_string(port_);
  }

  // ---- control plane ------------------------------------------------------

  /// Server side: invoked (on the agent thread) for every control request.
  /// The handler must answer with send_control_reply().
  using ControlHandler = std::function<void(
      std::uint64_t request_id, wire::ControlOp op, const std::string& text)>;
  void set_control_handler(ControlHandler h) { handler_ = std::move(h); }
  void send_control_reply(std::uint64_t request_id, bool ok,
                          const std::string& text);

  /// Client side: sends a control request and blocks the calling user-level
  /// thread until the reply or the timeout. Throws RemoteError on error
  /// replies, timeout, or a dead connection. Only callable from a thread on
  /// the owning runtime (setup code goes through net::RemoteNode, which
  /// drives the runtime).
  std::string call_control(wire::ControlOp op, const std::string& text,
                           rt::Time timeout = rt::seconds(10));

  // ---- state / diagnostics ------------------------------------------------

  /// Bound port (listen side after construction; useful with cfg.port = 0).
  [[nodiscard]] std::uint16_t local_port() const noexcept { return port_; }
  [[nodiscard]] bool connected() const noexcept {
    return state_ == State::kConnected;
  }
  [[nodiscard]] bool peer_closed() const noexcept { return peer_closed_; }
  /// True once a sent EOS frame has fully left the socket buffer.
  [[nodiscard]] bool eos_flushed() const noexcept { return eos_flushed_; }
  /// True once an EOS (real or synthetic) was delivered to the receiver.
  [[nodiscard]] bool eos_delivered() const noexcept { return eos_delivered_; }

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t reads = 0;            ///< recv(2) calls that returned bytes
    std::uint64_t writes = 0;           ///< send(2) calls
    std::uint64_t partial_writes = 0;   ///< EAGAIN → writability re-arm
    std::uint64_t connects = 0;         ///< successful active connects
    std::uint64_t accepts = 0;          ///< successful passive accepts
    std::uint64_t retries = 0;          ///< connect attempts that failed
    std::uint64_t peer_resets = 0;      ///< connection died without EOS
    std::uint64_t protocol_errors = 0;  ///< malformed frames (conn dropped)
    std::uint64_t oversize_drops = 0;   ///< UDP frame > datagram limit
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  enum class State : std::uint8_t {
    kListening,   ///< passive, no peer yet (or peer left)
    kConnecting,  ///< active connect in progress
    kBackoff,     ///< active connect failed; retry timer armed
    kConnected,
    kClosed,
  };

  /// Reply to a control call, routed back to the blocked caller.
  struct ControlReply {
    std::uint64_t id = 0;
    bool ok = false;
    std::string text;
  };

  SocketTransport(rt::Runtime& rt, rt::IoBridge& io, SocketConfig cfg,
                  bool passive);

  rt::CodeResult agent_code(rt::Runtime& rt, rt::Message m);
  void start_connect();
  void on_connected();
  void schedule_retry();
  void do_accept();
  void drain_reads();
  void drain_datagrams();
  void dispatch(wire::Frame f);
  void deliver(Item x);
  void publish();  ///< sends the unsent burst to an attached receiver
  void flush();
  void handle_peer_close(bool reset);
  void send_udp(const Item& packet);

  rt::Runtime* rt_;
  rt::IoBridge* io_;
  SocketConfig cfg_;
  bool passive_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int fd_ = -1;
  State state_ = State::kClosed;
  rt::ThreadId agent_ = rt::kNoThread;
  rt::ThreadId rx_ = rt::kNoThread;

  wire::FrameReader reader_;
  std::vector<std::uint8_t> out_;  ///< outbound bytes, [out_pos_, end) unsent
  std::size_t out_pos_ = 0;
  bool flush_queued_ = false;  ///< a kNetSocketFlush is on its way
  Burst unsent_;  ///< frames parsed and not yet sent to the receiver

  bool eos_sent_ = false;
  bool eos_flushed_ = false;
  bool eos_delivered_ = false;
  bool peer_closed_ = false;
  rt::Time backoff_ = 0;

  std::uint64_t next_request_ = 1;
  std::map<std::uint64_t, rt::ThreadId> pending_;  ///< control calls in wait
  ControlHandler handler_;

  Stats stats_;
  obs::Counter* obs_bytes_tx_ = nullptr;
  obs::Counter* obs_bytes_rx_ = nullptr;
  obs::Counter* obs_frames_tx_ = nullptr;
  obs::Counter* obs_frames_rx_ = nullptr;
  obs::Counter* obs_errors_ = nullptr;
};

/// Many-connection passive end: owns ONE listening socket and hands every
/// accepted connection to a fresh SocketTransport (via SocketTransport::
/// adopt), each with its own agent ULT, frame reader and control plane.
///
/// This generalizes SocketTransport::listen()'s one-peer-at-a-time accept
/// loop: the single-peer transport keeps its semantics (a second connector
/// is turned away; the slot reopens when the peer leaves) for the
/// point-to-point netpipes, while servers that must hold N concurrent peers
/// — the session acceptor foremost — listen here and get one transport per
/// peer, so slow peer A never serializes peer B's traffic behind one
/// connection slot. TCP only.
class SocketAcceptor {
 public:
  /// Invoked on the acceptor's agent thread with each freshly adopted
  /// transport. The callee owns the transport (keep it alive until the
  /// peer is done; dropping it closes the connection).
  using AcceptFn = std::function<void(std::unique_ptr<SocketTransport>)>;

  /// Binds + listens on cfg.host:cfg.port (0: kernel-assigned). Throws
  /// RemoteError when the address cannot be bound or cfg.udp is set.
  SocketAcceptor(rt::Runtime& rt, rt::IoBridge& io, SocketConfig cfg,
                 AcceptFn on_accept);
  ~SocketAcceptor();

  SocketAcceptor(const SocketAcceptor&) = delete;
  SocketAcceptor& operator=(const SocketAcceptor&) = delete;

  [[nodiscard]] std::uint16_t local_port() const noexcept { return port_; }
  /// Connections accepted and handed out so far.
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }

 private:
  rt::CodeResult agent_code(rt::Message m);
  void do_accept();

  rt::Runtime* rt_;
  rt::IoBridge* io_;
  SocketConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  rt::ThreadId agent_ = rt::kNoThread;
  AcceptFn on_accept_;
  std::uint64_t accepted_ = 0;
};

}  // namespace infopipe::net
