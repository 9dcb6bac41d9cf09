#include "rt/io_bridge.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cstring>

namespace infopipe::rt {

namespace {

/// Write end of the signal self-pipe; read from the signal handler, so it
/// must be a lock-free atomic (async-signal-safe access only). Claimed by
/// the first bridge to watch a signal — NOT by every constructed bridge,
/// so multiple bridges (one per shard runtime) can coexist for fd watching.
std::atomic<int> g_signal_pipe_wr{-1};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void io_bridge_signal_handler(int signo) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const auto byte = static_cast<std::uint8_t>(signo);
    // write(2) is async-signal-safe; a full pipe just drops the event.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

IoBridge::~IoBridge() {
  // Restore handlers before tearing the pipe down so no signal races the
  // close; then leave the runtime's set.
  for (const SignalWatch& w : signals_) ::sigaction(w.signo, &w.saved, nullptr);
  if (signal_pipe_[0] >= 0) {
    g_signal_pipe_wr.store(-1, std::memory_order_relaxed);
    rt_->unwatch_io(signal_pipe_[0]);
    ::close(signal_pipe_[0]);
    ::close(signal_pipe_[1]);
  }
  for (std::size_t fd = 0; fd < watches_.size(); ++fd) {
    if (watches_[fd].added) rt_->unwatch_io(static_cast<int>(fd));
  }
}

IoBridge::Watch& IoBridge::add(int fd, bool stream) {
  assert(rt_->owned_here());
  const auto i = static_cast<std::size_t>(fd);
  if (i >= watches_.size()) watches_.resize(i + 1);
  Watch& w = watches_[i];
  if (!w.added) {
    rt_->watch_io(fd, stream ? EPOLLIN : EPOLLIN | EPOLLOUT | EPOLLET, *this);
    w.added = true;
    w.stream = stream;
  }
  return w;
}

void IoBridge::watch_fd(int fd, ThreadId to) { add(fd, true).to[0] = to; }

void IoBridge::arm(int fd, ThreadId to, bool writable) {
  Watch& w = add(fd, false);
  w.to[writable] = to;
  if (w.edge[writable]) fire(fd, w, writable);
}

void IoBridge::cancel_fd(int fd) {
  assert(rt_->owned_here());
  const auto i = static_cast<std::size_t>(fd);
  if (fd < 0 || i >= watches_.size() || !watches_[i].added) return;
  rt_->unwatch_io(fd);
  watches_[i] = Watch{};
}

void IoBridge::fire(int fd, Watch& w, bool writable) {
  const ThreadId to = w.to[writable];
  w.edge[writable] = to == kNoThread;
  if (to == kNoThread) return;
  w.to[writable] = kNoThread;
  Message m{writable ? kMsgIoWritable : kMsgIoReadable, MsgClass::kData};
  m.payload = fd;
  rt_->send(to, std::move(m));
}

void IoBridge::on_io(int fd, std::uint32_t events) {
  if (fd == signal_pipe_[0]) {
    read_signals();
    return;
  }
  Watch& w = watches_[static_cast<std::size_t>(fd)];
  if (w.stream) {
    read_stream(fd, w.to[0]);
    return;
  }
  // Errors and hang-ups fire both directions: the consumer's own
  // read()/write()/getsockopt() sees the error; a silent hang must not
  // happen.
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) fire(fd, w, false);
  if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) fire(fd, w, true);
}

void IoBridge::read_stream(int fd, ThreadId to) {
  std::vector<std::uint8_t> data(64 * 1024);
  const ssize_t n = ::read(fd, data.data(), data.size());
  if (n > 0) {
    data.resize(static_cast<std::size_t>(n));
    Message m{kMsgIoData, MsgClass::kData};
    m.payload = std::move(data);
    rt_->send(to, std::move(m));
  } else if (n == 0) {
    cancel_fd(fd);
    Message m{kMsgIoEof, MsgClass::kData};
    m.payload = fd;
    rt_->send(to, std::move(m));
  }
}

void IoBridge::read_signals() {
  std::uint8_t buf[64];
  ssize_t n;
  while ((n = ::read(signal_pipe_[0], buf, sizeof buf)) > 0) {
    for (ssize_t i = 0; i < n; ++i) {
      for (const SignalWatch& w : signals_) {
        if (w.signo != buf[i]) continue;
        Message m{kMsgIoSignal, MsgClass::kControl};
        m.payload = w.signo;
        rt_->send(w.to, std::move(m));
      }
    }
  }
}

void IoBridge::watch_signal(int signo, ThreadId to) {
  if (signal_pipe_[0] < 0) {
    int p[2];
    if (::pipe2(p, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw RuntimeError("IoBridge: cannot create the signal self-pipe");
    }
    int expected = -1;
    if (!g_signal_pipe_wr.compare_exchange_strong(expected, p[1],
                                                  std::memory_order_relaxed)) {
      ::close(p[0]);
      ::close(p[1]);
      throw RuntimeError(
          "IoBridge::watch_signal: another bridge already owns the signal "
          "self-pipe");
    }
    signal_pipe_[0] = p[0];
    signal_pipe_[1] = p[1];
    rt_->watch_io(p[0], EPOLLIN, *this);
  }
  for (SignalWatch& w : signals_) {
    if (w.signo != signo) continue;
    w.to = to;
    return;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &io_bridge_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  SignalWatch w{signo, to, {}};
  if (::sigaction(signo, &sa, &w.saved) == 0) signals_.push_back(w);
}

}  // namespace infopipe::rt
