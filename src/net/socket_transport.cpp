#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace infopipe::net {

namespace {

/// Largest UDP payload we attempt (conservative: fits any loopback MTU).
constexpr std::size_t kMaxDatagramBytes = 60 * 1024;

/// One read() chunk, and the unsent bytes at which send() writes at once
/// instead of leaving the burst to the agent's flush.
constexpr std::size_t kChunkBytes = 64 * 1024;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port,
                      bool listen_side) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  if (host.empty()) {
    a.sin_addr.s_addr = htonl(listen_side ? INADDR_ANY : INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &a.sin_addr) != 1) {
    throw RemoteError("not an IPv4 address: " + host);
  }
  return a;
}

/// A nonblocking socket bound to host:port (0: kernel-assigned) and, for
/// TCP, listening; sets `bound` to the port it got. Throws RemoteError.
int open_bound(const std::string& host, std::uint16_t port, bool udp,
               int backlog, std::uint16_t& bound) {
  const sockaddr_in a = make_addr(host, port, /*listen_side=*/true);
  const int type =
      (udp ? SOCK_DGRAM : SOCK_STREAM) | SOCK_NONBLOCK | SOCK_CLOEXEC;
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) throw RemoteError(errno_text("socket()"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  std::string why;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof a) < 0) {
    why = errno_text("bind()") + " on " + host + ":" + std::to_string(port);
  } else if (!udp && ::listen(fd, backlog) < 0) {
    why = errno_text("listen()");
  }
  if (!why.empty()) {
    ::close(fd);
    throw RemoteError(why);
  }
  sockaddr_in got{};
  socklen_t len = sizeof got;
  bound = ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0
              ? ntohs(got.sin_port)
              : port;
  return fd;
}

void set_stream_options(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

}  // namespace

SocketTransport::SocketTransport(rt::Runtime& rt, rt::IoBridge& io,
                                 SocketConfig cfg, bool passive)
    : rt_(&rt),
      io_(&io),
      cfg_(std::move(cfg)),
      passive_(passive),
      reader_(cfg_.max_frame_bytes) {
  port_ = cfg_.port;
  agent_ = rt.spawn(
      "net.sock", rt::kPriorityData,
      [this](rt::Runtime& r, rt::Message m) { return agent_code(r, m); });
  obs::MetricsRegistry& mr = rt.metrics();
  obs_bytes_tx_ = &mr.counter("net.sock.bytes_sent");
  obs_bytes_rx_ = &mr.counter("net.sock.bytes_received");
  obs_frames_tx_ = &mr.counter("net.sock.frames_sent");
  obs_frames_rx_ = &mr.counter("net.sock.frames_received");
  obs_errors_ = &mr.counter("net.sock.protocol_errors");
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) {
    io_->cancel_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    io_->cancel_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (rt_->alive(agent_)) rt_->kill(agent_);
}

std::unique_ptr<SocketTransport> SocketTransport::listen(rt::Runtime& rt,
                                                         rt::IoBridge& io,
                                                         SocketConfig cfg) {
  auto t = std::unique_ptr<SocketTransport>(
      new SocketTransport(rt, io, std::move(cfg), /*passive=*/true));
  const int fd =
      open_bound(t->cfg_.host, t->cfg_.port, t->cfg_.udp, 8, t->port_);
  if (t->cfg_.udp) {
    t->fd_ = fd;
    t->state_ = State::kConnected;  // connectionless: always "up"
  } else {
    t->listen_fd_ = fd;
    t->state_ = State::kListening;
  }
  t->io_->watch_readable_once(fd, t->agent_);
  return t;
}

std::unique_ptr<SocketTransport> SocketTransport::connect(rt::Runtime& rt,
                                                          rt::IoBridge& io,
                                                          SocketConfig cfg) {
  auto t = std::unique_ptr<SocketTransport>(
      new SocketTransport(rt, io, std::move(cfg), /*passive=*/false));
  if (t->cfg_.udp) {
    const sockaddr_in a =
        make_addr(t->cfg_.host, t->cfg_.port, /*listen_side=*/false);
    t->fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (t->fd_ < 0) throw RemoteError(errno_text("socket()"));
    // UDP connect() just pins the default destination; it cannot block.
    if (::connect(t->fd_, reinterpret_cast<const sockaddr*>(&a), sizeof a) <
        0) {
      throw RemoteError(errno_text("connect()"));
    }
    t->state_ = State::kConnected;
    t->io_->watch_readable_once(t->fd_, t->agent_);
  } else {
    t->start_connect();  // throws on an unparseable address
  }
  return t;
}

std::unique_ptr<SocketTransport> SocketTransport::adopt(rt::Runtime& rt,
                                                        rt::IoBridge& io,
                                                        SocketConfig cfg,
                                                        int fd) {
  if (cfg.udp) throw RemoteError("adopt() is TCP-only");
  auto t = std::unique_ptr<SocketTransport>(
      new SocketTransport(rt, io, std::move(cfg), /*passive=*/true));
  sockaddr_in local{};
  socklen_t llen = sizeof local;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &llen) == 0) {
    t->port_ = ntohs(local.sin_port);
  }
  t->fd_ = fd;
  t->state_ = State::kConnected;
  ++t->stats_.accepts;
  t->io_->watch_readable_once(fd, t->agent_);
  return t;
}

void SocketTransport::start_connect() {
  const sockaddr_in a = make_addr(cfg_.host, cfg_.port, /*listen_side=*/false);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    schedule_retry();
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  state_ = State::kConnecting;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&a), sizeof a) == 0) {
    on_connected();
    return;
  }
  if (errno == EINPROGRESS) {
    io_->watch_writable_once(fd_, agent_);
    return;
  }
  ::close(fd_);
  fd_ = -1;
  schedule_retry();
}

void SocketTransport::on_connected() {
  state_ = State::kConnected;
  ++stats_.connects;
  backoff_ = cfg_.retry_initial;
  io_->watch_readable_once(fd_, agent_);
  flush();  // release anything queued while the peer was absent
}

void SocketTransport::schedule_retry() {
  ++stats_.retries;
  state_ = State::kBackoff;
  if (backoff_ <= 0) backoff_ = cfg_.retry_initial;
  rt_->send_at(rt_->now() + backoff_, agent_,
               rt::Message{rt::msg::kNetSocketRetry, rt::MsgClass::kData});
  backoff_ = std::min(backoff_ * 2, cfg_.retry_max);
}

void SocketTransport::do_accept() {
  for (;;) {
    const int c =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (c < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    if (fd_ >= 0) {
      // One peer at a time: a second connector is turned away.
      ::close(c);
      continue;
    }
    set_stream_options(c);
    fd_ = c;
    state_ = State::kConnected;
    ++stats_.accepts;
    peer_closed_ = false;
    reader_.reset();
    io_->watch_readable_once(fd_, agent_);
    flush();
  }
  io_->watch_readable_once(listen_fd_, agent_);
}

rt::CodeResult SocketTransport::agent_code(rt::Runtime&, rt::Message m) {
  switch (m.type) {
    case rt::kMsgIoReadable: {
      const int* fd = m.get<int>();
      if (fd == nullptr) break;
      if (*fd == listen_fd_) {
        do_accept();
      } else if (*fd == fd_) {  // stale notifications for closed fds skipped
        if (cfg_.udp) {
          drain_datagrams();
        } else {
          drain_reads();
        }
      }
      break;
    }
    case rt::kMsgIoWritable: {
      const int* fd = m.get<int>();
      if (fd == nullptr || *fd != fd_) break;
      if (state_ == State::kConnecting) {
        int err = 0;
        socklen_t len = sizeof err;
        if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
            err != 0) {
          io_->cancel_fd(fd_);
          ::close(fd_);
          fd_ = -1;
          schedule_retry();
        } else {
          on_connected();
        }
      } else if (state_ == State::kConnected) {
        flush();
      }
      break;
    }
    case rt::msg::kNetSocketRetry:
      if (state_ == State::kBackoff) start_connect();
      break;
    case rt::msg::kNetSocketFlush:
      flush_queued_ = false;
      flush();
      break;
    default:
      break;
  }
  return rt::CodeResult::kContinue;
}

void SocketTransport::drain_reads() {
  for (;;) {
    const std::span<std::uint8_t> room = reader_.prepare(kChunkBytes);
    const ssize_t n = ::recv(fd_, room.data(), room.size(), 0);
    if (n > 0) {
      ++stats_.reads;
      stats_.bytes_received += static_cast<std::uint64_t>(n);
      obs_bytes_rx_->inc(static_cast<std::uint64_t>(n));
      reader_.commit(static_cast<std::size_t>(n));
      try {
        while (auto f = reader_.next()) dispatch(std::move(*f));
        publish();  // one delivery per read
      } catch (const RemoteError&) {
        // Hostile or corrupt stream: framing is lost, drop the connection.
        ++stats_.protocol_errors;
        obs_errors_->inc();
        handle_peer_close(/*error=*/true);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Orderly close. Clean if we already saw EOS; a reset otherwise.
      handle_peer_close(/*error=*/!eos_delivered_);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    handle_peer_close(/*error=*/true);
    return;
  }
  io_->watch_readable_once(fd_, agent_);
}

void SocketTransport::drain_datagrams() {
  for (;;) {
    // Each datagram carries whole frames; resetting the reader per datagram
    // keeps one corrupt packet from poisoning the next.
    reader_.reset();
    const std::span<std::uint8_t> room = reader_.prepare(kChunkBytes);
    const ssize_t n = ::recv(fd_, room.data(), room.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient ICMP error: both just end the drain
    }
    if (n > 0) ++stats_.reads;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    obs_bytes_rx_->inc(static_cast<std::uint64_t>(n));
    reader_.commit(static_cast<std::size_t>(n));
    try {
      while (auto f = reader_.next()) dispatch(std::move(*f));
      if (reader_.buffered() != 0) {  // truncated trailing frame
        ++stats_.protocol_errors;
        obs_errors_->inc();
      }
    } catch (const RemoteError&) {
      ++stats_.protocol_errors;  // drop the datagram, keep the socket
      obs_errors_->inc();
    }
    publish();  // the frames that parsed before any error
  }
  io_->watch_readable_once(fd_, agent_);
}

void SocketTransport::dispatch(wire::Frame f) {
  switch (f.type) {
    case wire::FrameType::kData:
      ++stats_.frames_received;
      obs_frames_rx_->inc();
      deliver(std::move(f.item));
      break;
    case wire::FrameType::kEos:
      ++stats_.frames_received;
      deliver(Item::eos());
      break;
    case wire::FrameType::kControlReq:
      if (handler_) {
        handler_(f.request_id, static_cast<wire::ControlOp>(f.op), f.text);
      } else {
        send_control_reply(f.request_id, false, "no control handler attached");
      }
      break;
    case wire::FrameType::kControlRep: {
      const auto it = pending_.find(f.request_id);
      if (it == pending_.end()) break;  // late reply after a timeout
      ControlReply r{f.request_id, f.op == 0, std::move(f.text)};
      rt::Message m{rt::msg::kNetControlReply, rt::MsgClass::kData};
      m.payload = std::move(r);
      rt_->send(it->second, std::move(m));
      break;
    }
  }
}

void SocketTransport::deliver(Item x) {
  if (x.is_eos()) {
    if (eos_delivered_) return;  // at most one EOS per stream
    eos_delivered_ = true;
  }
  unsent_.push_back(std::move(x));
}

void SocketTransport::publish() {
  if (rx_ == rt::kNoThread || unsent_.empty()) return;
  rt_->send(rx_, rt::Message{kMsgNetDeliver, rt::MsgClass::kData,
                             std::move(unsent_)});
}

void SocketTransport::attach_receiver(rt::ThreadId tid) {
  rx_ = tid;
  publish();  // frames that arrived before the receiver was realized
}

void SocketTransport::send(rt::Runtime&, Item packet) {
  if (packet.is_nil()) return;
  if (cfg_.udp) {
    send_udp(packet);
    return;
  }
  if (eos_flushed_) return;  // write side already shut down
  if (packet.is_eos()) {
    wire::append_eos_frame(out_);
    eos_sent_ = true;
  } else {
    wire::append_data_frame(out_, packet);
    ++stats_.frames_sent;
    obs_frames_tx_->inc();
  }
  if (eos_sent_ || out_.size() - out_pos_ >= kChunkBytes) {
    flush();
  } else if (!flush_queued_) {  // written once the sending section yields
    flush_queued_ = true;
    rt_->send(agent_,
              rt::Message{rt::msg::kNetSocketFlush, rt::MsgClass::kData});
  }
}

void SocketTransport::send_udp(const Item& packet) {
  std::vector<std::uint8_t> frame;
  if (packet.is_eos()) {
    wire::append_eos_frame(frame);
    eos_sent_ = true;
  } else {
    wire::append_data_frame(frame, packet);
  }
  if (frame.size() > kMaxDatagramBytes) {
    ++stats_.oversize_drops;
    return;
  }
  const ssize_t n = ::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL);
  ++stats_.writes;
  if (n < 0) return;  // best-effort, like SimLink loss: EAGAIN/no-peer drop
  stats_.bytes_sent += static_cast<std::uint64_t>(n);
  ++stats_.frames_sent;
  obs_bytes_tx_->inc(static_cast<std::uint64_t>(n));
  obs_frames_tx_->inc();
  if (packet.is_eos()) eos_flushed_ = true;
}

void SocketTransport::flush() {
  if (cfg_.udp) return;
  if (state_ != State::kConnected || fd_ < 0) return;  // queued until connect
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    ++stats_.writes;
    if (n >= 0) {
      out_pos_ += static_cast<std::size_t>(n);
      stats_.bytes_sent += static_cast<std::uint64_t>(n);
      obs_bytes_tx_->inc(static_cast<std::uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++stats_.partial_writes;
      io_->watch_writable_once(fd_, agent_);
      return;
    }
    handle_peer_close(/*error=*/true);
    return;
  }
  out_.clear();
  out_pos_ = 0;
  if (eos_sent_ && !eos_flushed_) {
    // Everything up to and including EOS is on the wire: half-close so the
    // peer's read side sees an orderly end after the EOS frame.
    eos_flushed_ = true;
    ::shutdown(fd_, SHUT_WR);
  }
}

void SocketTransport::handle_peer_close(bool error) {
  if (fd_ >= 0) {
    io_->cancel_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  peer_closed_ = true;
  reader_.reset();
  if (error) ++stats_.peer_resets;
  if (!eos_delivered_ && rx_ != rt::kNoThread) {
    // The peer vanished without EOS: synthesize one so the consumer
    // pipeline terminates instead of hanging (SimLink's EOS contract).
    deliver(Item::eos());
  }
  publish();  // with what the last read parsed before the close
  state_ = (passive_ && listen_fd_ >= 0) ? State::kListening : State::kClosed;
}

void SocketTransport::send_control_reply(std::uint64_t request_id, bool ok,
                                         const std::string& text) {
  if (cfg_.udp) throw RemoteError("control plane requires TCP");
  wire::append_control_reply(out_, request_id, ok, text);
  flush();
}

std::string SocketTransport::call_control(wire::ControlOp op,
                                          const std::string& text,
                                          rt::Time timeout) {
  if (cfg_.udp) throw RemoteError("control plane requires TCP");
  const rt::ThreadId self = rt_->current();
  if (self == rt::kNoThread) {
    throw RemoteError("call_control outside a user-level thread");
  }
  const std::uint64_t id = next_request_++;
  wire::append_control_request(out_, id, op, text);
  flush();  // queues until connected; retry/backoff covers a late server
  pending_[id] = self;
  rt_->send_at(rt_->now() + timeout, self,
               rt::Message{rt::msg::kNetControlTimeout, rt::MsgClass::kData,
                           std::any(id)});
  rt::Message m = rt_->receive_matching([id](const rt::Message& x) {
    if (x.type == rt::msg::kNetControlReply) {
      const auto* r = x.get<ControlReply>();
      return r != nullptr && r->id == id;
    }
    if (x.type == rt::msg::kNetControlTimeout) {
      const auto* i = x.get<std::uint64_t>();
      return i != nullptr && *i == id;
    }
    return false;
  });
  pending_.erase(id);
  if (m.type == rt::msg::kNetControlTimeout) {
    throw RemoteError("control call timed out (op " +
                      std::to_string(static_cast<int>(op)) + ")");
  }
  // Retire the timeout timer: left pending it would keep the runtime from
  // going quiescent — under a RealClock, a multi-second stall in the next
  // plain run().
  rt_->cancel_timers(self, rt::msg::kNetControlTimeout);
  auto r = m.take<ControlReply>();
  if (!r.ok) throw RemoteError(r.text);
  return std::move(r.text);
}

// ============================ SocketAcceptor ================================

SocketAcceptor::SocketAcceptor(rt::Runtime& rt, rt::IoBridge& io,
                               SocketConfig cfg, AcceptFn on_accept)
    : rt_(&rt), io_(&io), cfg_(std::move(cfg)), on_accept_(std::move(on_accept)) {
  if (cfg_.udp) throw RemoteError("SocketAcceptor is TCP-only");
  // Deep backlog: a session server expects connect bursts, and nothing in
  // the accept path blocks (each adopted fd gets its own agent).
  listen_fd_ = open_bound(cfg_.host, cfg_.port, /*udp=*/false, 128, port_);
  agent_ = rt.spawn("net.accept", rt::kPriorityData,
                    [this](rt::Runtime&, rt::Message m) {
                      return agent_code(std::move(m));
                    });
  io_->watch_readable_once(listen_fd_, agent_);
}

SocketAcceptor::~SocketAcceptor() {
  if (listen_fd_ >= 0) {
    io_->cancel_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (rt_->alive(agent_)) rt_->kill(agent_);
}

rt::CodeResult SocketAcceptor::agent_code(rt::Message m) {
  if (m.type == rt::kMsgIoReadable) {
    const int* fd = m.get<int>();
    if (fd != nullptr && *fd == listen_fd_) do_accept();
  }
  return rt::CodeResult::kContinue;
}

void SocketAcceptor::do_accept() {
  for (;;) {
    const int c =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (c < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    set_stream_options(c);
    ++accepted_;
    // Every peer gets its OWN transport + agent ULT — no shared connection
    // slot, no turn-away, no re-listen serialization.
    on_accept_(SocketTransport::adopt(*rt_, *io_, cfg_, c));
  }
  io_->watch_readable_once(listen_fd_, agent_);
}

}  // namespace infopipe::net
