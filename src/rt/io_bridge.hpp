// OS event mapping (§4): "Network packets and signals from the operating
// system are mapped to messages by the platform allowing all types of
// events to be handled by a uniform message interface."
//
// The IoBridge is a thin facade over its runtime's epoll set (the runtime's
// one park point, rt/runtime.hpp); it starts no thread. File descriptors
// registered with watch_fd() deliver their readable data as kMsgIoData
// messages; one-shot readiness watches deliver kMsgIoReadable /
// kMsgIoWritable; POSIX signals registered with watch_signal() arrive as
// kMsgIoSignal messages. Readiness is handled on the runtime's own thread,
// when it parks or polls, and delivered with a local send(), so user-level
// threads handle network input, timers and signals through one mailbox.
//
// Only meaningful with a RealClock runtime (a virtual-clock runtime has no
// epoll set; the first watch throws). Watch, unwatch and cancel calls must
// run on the runtime's own thread or while no thread runs it; constructing
// and destroying a bridge touches nothing of the runtime's until the first
// watch, and the runtime must outlive its bridge.
//
// One-shot watches cost no syscall per re-arm: the fd joins the set once,
// edge-triggered, and an arm only records the target. An edge that arrives
// while the fd is disarmed is remembered, and the next arm delivers it at
// once (possibly spuriously), which is correct because every consumer
// drains to EAGAIN before it re-arms.
//
// Signals use the classic self-pipe trick, so handlers stay async-signal-
// safe; the pipe's read end joins the set of the runtime whose bridge
// claimed it. The process-wide self-pipe is claimed by the first bridge
// that calls watch_signal() and released when that bridge is destroyed; a
// second bridge calling watch_signal() while the first still owns it throws.
#pragma once

#include <csignal>
#include <cstdint>
#include <vector>

#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe::rt {

/// Message types delivered by the bridge (values in rt/msg_registry.hpp).
inline constexpr int kMsgIoData = msg::kIoData;      ///< vector<uint8_t>
inline constexpr int kMsgIoSignal = msg::kIoSignal;  ///< int (signal number)
inline constexpr int kMsgIoEof = msg::kIoEof;        ///< int (the fd)
inline constexpr int kMsgIoReadable = msg::kIoReadable;  ///< int (the fd)
inline constexpr int kMsgIoWritable = msg::kIoWritable;  ///< int (the fd)

class IoBridge {
 public:
  explicit IoBridge(Runtime& rt) : rt_(&rt) {}
  ~IoBridge();

  IoBridge(const IoBridge&) = delete;
  IoBridge& operator=(const IoBridge&) = delete;

  /// Delivers each readable chunk of `fd` (up to 64 KiB) to `to` as a
  /// kMsgIoData message; a kMsgIoEof message when the peer closes.
  void watch_fd(int fd, ThreadId to);
  void unwatch_fd(int fd) { cancel_fd(fd); }

  /// One-shot READINESS notification: when `fd` becomes readable (EPOLLIN /
  /// EPOLLHUP / EPOLLERR) a kMsgIoReadable message (payload: int fd) is
  /// delivered to `to` and the watch is dropped; re-arm after draining.
  /// Unlike watch_fd(), the bridge never read()s the fd itself — this is
  /// the registration for fds that are not plain byte streams (listening
  /// sockets, connect-in-progress sockets) and for consumers that do their
  /// own nonblocking I/O, like net::SocketTransport's framing loop.
  void watch_readable_once(int fd, ThreadId to) { arm(fd, to, false); }

  /// One-shot writability notification (EPOLLOUT / EPOLLERR / EPOLLHUP →
  /// kMsgIoWritable). Used for connect-in-progress completion and for
  /// resuming a partially written output queue.
  void watch_writable_once(int fd, ThreadId to) { arm(fd, to, true); }

  /// Removes `fd` from the set and drops its watches (call before closing
  /// it; a notification already sent may still arrive).
  void cancel_fd(int fd);

  /// Delivers each occurrence of `signo` to `to` as kMsgIoSignal. Installs
  /// a process-wide handler for that signal (restored on destruction).
  /// One bridge at a time may watch signals (the handler's self-pipe is a
  /// process-wide singleton); a second concurrent claimant throws
  /// RuntimeError.
  void watch_signal(int signo, ThreadId to);

 private:
  /// One registered fd. `stream` watches are level-triggered (one read per
  /// report, so a blocking fd is fine); one-shot ones edge-triggered.
  struct Watch {
    bool added = false;
    bool stream = false;
    ThreadId to[2] = {kNoThread, kNoThread};  ///< [readable, writable]
    bool edge[2] = {false, false};  ///< an edge seen while disarmed
  };

  friend class Runtime;  ///< calls on_io() with what its epoll set reports
  void on_io(int fd, std::uint32_t events);
  Watch& add(int fd, bool stream);
  void arm(int fd, ThreadId to, bool writable);
  void fire(int fd, Watch& w, bool writable);
  void read_stream(int fd, ThreadId to);
  void read_signals();

  Runtime* rt_;
  std::vector<Watch> watches_;  ///< by fd
  int signal_pipe_[2] = {-1, -1};  ///< the claimed self-pipe, if any
  struct SignalWatch {
    int signo;
    ThreadId to;
    struct sigaction saved;  ///< restored on destruction
  };
  std::vector<SignalWatch> signals_;
};

}  // namespace infopipe::rt
