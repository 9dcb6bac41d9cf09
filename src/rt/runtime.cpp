#include "rt/runtime.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "replay/hooks.hpp"
#include "rt/io_bridge.hpp"

namespace infopipe::rt {

namespace {
/// The runtime whose run() is active on this OS thread. Set for the duration
/// of run()/run_until() so thread entry functions can find their scheduler.
thread_local Runtime* g_active_runtime = nullptr;

struct ActiveRuntimeScope {
  explicit ActiveRuntimeScope(Runtime* rt) : prev(g_active_runtime) {
    g_active_runtime = rt;
  }
  ~ActiveRuntimeScope() { g_active_runtime = prev; }
  Runtime* prev;
};
}  // namespace

Runtime::Runtime(std::unique_ptr<Clock> clock, Options options)
    : clock_(clock ? std::move(clock) : std::make_unique<VirtualClock>()),
      options_(options),
      pool_(&mem::Pool::create("rt")) {
  metrics_.set_time_source([this] { return clock_->now(); });
  tracer_.set_time_source([this] { return clock_->now(); });
  // The scheduler's hot-path counters live in the plain Stats struct (an
  // increment costs one add); this collector publishes them into snapshots.
  // The pool's counters ride along, so every --metrics-out dump shows the
  // item path's allocation behaviour.
  metrics_.add_collector([this](obs::MetricsSnapshot& s) {
    s.add_counter("rt.context_switches", stats_.context_switches);
    s.add_counter("rt.messages_sent", stats_.messages_sent);
    s.add_counter("rt.messages_dropped", stats_.messages_dropped);
    s.add_counter("rt.timer_wakeups", stats_.timer_wakeups);
    s.add_counter("rt.threads_spawned", stats_.threads_spawned);
    s.add_counter("rt.preemptions", stats_.preemptions);
    s.add_counter("rt.dispatches", stats_.dispatches);
    s.add_gauge("rt.live_threads", static_cast<double>(live_threads()));
    const mem::Pool::Stats ps = pool_->stats();
    s.add_counter("mem.pool.hits", ps.hits);
    s.add_counter("mem.pool.misses", ps.misses);
    s.add_counter("mem.pool.recycled", ps.recycled);
    s.add_counter("mem.pool.foreign_returned", ps.foreign_returned);
    s.add_counter("mem.pool.foreign_adopted", ps.foreign_adopted);
    s.add_counter("mem.pool.oversize", ps.oversize);
    s.add_gauge("mem.pool.slab_bytes", static_cast<double>(ps.slab_bytes));
    s.add_gauge("mem.pool.numa_node", static_cast<double>(pool_->numa_node()));
  });
}

void Runtime::open_io() {
  if (epoll_fd_ >= 0) return;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const std::string err = std::strerror(errno);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    throw RuntimeError("Runtime: cannot open its epoll set: " + err);
  }
}

Runtime::~Runtime() {
  // The pool is immortal (payloads may outlive this runtime), but its owner
  // thread is gone: foreign returns must adopt from now on.
  pool_->detach();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    ::close(wake_fd_);
  }
}

// ---- Thread management -----------------------------------------------------

ThreadId Runtime::spawn(std::string name, Priority priority, CodeFunction code,
                        std::size_t stack_size) {
  const ThreadId id = next_id_++;
  auto t = std::make_unique<UThread>(id, std::move(name), priority,
                                     std::move(code), stack_size);
  threads_.emplace(id, std::move(t));
  ++stats_.threads_spawned;
  return id;
}

bool Runtime::alive(ThreadId id) const noexcept {
  auto it = threads_.find(id);
  return it != threads_.end() && it->second->state_ != ThreadState::kDone;
}

ThreadId Runtime::current() const noexcept {
  return current_ != nullptr ? current_->id() : kNoThread;
}

UThread* Runtime::thread(ThreadId id) noexcept {
  auto it = threads_.find(id);
  return it == threads_.end() ? nullptr : it->second.get();
}

UThread& Runtime::require_current(const char* op) {
  UThread* t = current_thread();
  if (t == nullptr) {
    throw RuntimeError(std::string(op) +
                       " may only be called from inside a user-level thread");
  }
  return *t;
}

void Runtime::kill(ThreadId id) {
  UThread* t = thread(id);
  if (t == nullptr || t->state_ == ThreadState::kDone) return;
  t->state_ = ThreadState::kDone;
  t->mailbox_.clear();
  t->queued_control_ = 0;
  if (t == current_) suspend_current();  // never returns to the killed thread
}

std::size_t Runtime::live_threads() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, t] : threads_) {
    if (t->state_ != ThreadState::kDone) ++n;
  }
  return n;
}

// ---- Messaging ---------------------------------------------------------------

void Runtime::send(ThreadId to, Message m) {
  UThread* target = thread(to);
  if (target == nullptr || target->state_ == ThreadState::kDone) {
    ++stats_.messages_dropped;
    return;
  }
  if (UThread* me = current_thread()) {
    if (m.sender == kNoThread) m.sender = me->id();
    // Constraint inheritance (§4): a message sent while processing a
    // constrained message carries that constraint onwards, so a pump's
    // constraint governs its whole coroutine set.
    if (!m.constraint && me->active_constraint_) {
      m.constraint = me->active_constraint_;
    }
  }
  if (m.cls == MsgClass::kControl) ++target->queued_control_;
  target->mailbox_.push_back(std::move(m));
  ++stats_.messages_sent;
  make_ready(*target);
  maybe_preempt(*target);
}

void Runtime::post_external(ThreadId to, Message m) {
  {
    std::lock_guard lk(external_mutex_);
    external_.emplace_back(to, std::move(m));
    external_pending_.store(true, std::memory_order_seq_cst);
  }
  wake();
}

void Runtime::unpark_external(ThreadId id) {
  {
    std::lock_guard lk(external_mutex_);
    external_unparks_.push_back(id);
    external_pending_.store(true, std::memory_order_seq_cst);
  }
  wake();
}

void Runtime::request_halt() noexcept {
  halt_.store(true, std::memory_order_seq_cst);
  wake();
}

void Runtime::wake() noexcept {
  // Dekker with park_until(): the flag was stored before this load, and the
  // runtime rechecks both flags after publishing parked_, so one side sees
  // the other. The exchange lets one of several racing posters write.
  if (parked_.load(std::memory_order_seq_cst) &&
      parked_.exchange(false, std::memory_order_seq_cst)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

void Runtime::send_at(Time t, ThreadId to, Message m) {
  timers_.push_back(TimerEntry{t, next_seq_++, to, std::move(m)});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

std::size_t Runtime::cancel_timers(ThreadId to, int type) {
  const auto dead = [&](const TimerEntry& e) {
    return e.target == to && e.message.has_value() && e.message->type == type;
  };
  const auto it = std::remove_if(timers_.begin(), timers_.end(), dead);
  const auto n = static_cast<std::size_t>(timers_.end() - it);
  if (n > 0) {
    timers_.erase(it, timers_.end());
    std::make_heap(timers_.begin(), timers_.end(), TimerLater{});
  }
  return n;
}

Message Runtime::call(ThreadId to, Message m) {
  UThread& me = require_current("call");
  UThread* target = thread(to);
  if (target == nullptr || target->state_ == ThreadState::kDone) {
    throw RuntimeError("call() to dead thread");
  }
  m.sender = me.id();
  m.request_id = next_request_id_++;
  const std::uint64_t rid = m.request_id;

  // One-level priority inheritance: boost the callee to our effective
  // priority until the reply arrives.
  const Priority donated = me.effective_priority();
  if (options_.priority_inheritance) target->inherited_.push_back(donated);

  send(to, std::move(m));
  Message rep = receive_matching([rid](const Message& x) {
    return x.cls == MsgClass::kReply && x.request_id == rid;
  });

  if (options_.priority_inheritance) {
    if (UThread* t2 = thread(to)) {
      auto it =
          std::find(t2->inherited_.begin(), t2->inherited_.end(), donated);
      if (it != t2->inherited_.end()) t2->inherited_.erase(it);
    }
  }
  return rep;
}

void Runtime::reply(const Message& request, Message response) {
  response.cls = MsgClass::kReply;
  response.request_id = request.request_id;
  send(request.sender, std::move(response));
}

// ---- Blocking primitives ------------------------------------------------------

Message Runtime::pop_next_message(UThread& t) {
  // Control events overtake queued data (§2.2: handlers for control events
  // "are executed with higher priority than potentially long-running data
  // processing"). The queued_control_ counter keeps the common no-control
  // case O(1) even with huge backlogs.
  if (options_.control_overtakes_data && t.queued_control_ > 0) {
    for (auto it = t.mailbox_.begin(); it != t.mailbox_.end(); ++it) {
      if (it->cls == MsgClass::kControl) {
        Message m = std::move(*it);
        t.mailbox_.erase(it);
        --t.queued_control_;
        return m;
      }
    }
  }
  Message m = std::move(t.mailbox_.front());
  t.mailbox_.pop_front();
  if (m.cls == MsgClass::kControl) --t.queued_control_;
  return m;
}

Message Runtime::receive() {
  UThread& me = require_current("receive");
  for (;;) {
    if (!me.mailbox_.empty()) return pop_next_message(me);
    me.state_ = ThreadState::kWaitingMsg;
    suspend_current();
  }
}

Message Runtime::receive_matching(const MsgPredicate& pred) {
  UThread& me = require_current("receive_matching");
  for (;;) {
    for (auto it = me.mailbox_.begin(); it != me.mailbox_.end(); ++it) {
      if (pred(*it)) {
        Message m = std::move(*it);
        if (m.cls == MsgClass::kControl) --me.queued_control_;
        me.mailbox_.erase(it);
        return m;
      }
    }
    me.state_ = ThreadState::kWaitingMsg;
    suspend_current();
  }
}

std::optional<Message> Runtime::try_receive(const MsgPredicate& pred) {
  UThread& me = require_current("try_receive");
  for (auto it = me.mailbox_.begin(); it != me.mailbox_.end(); ++it) {
    if (pred(*it)) {
      Message m = std::move(*it);
      if (m.cls == MsgClass::kControl) --me.queued_control_;
      me.mailbox_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void Runtime::sleep_until(Time t) {
  UThread& me = require_current("sleep_until");
  if (t <= now()) {
    yield();
    return;
  }
  me.wake_time_ = t;
  me.state_ = ThreadState::kSleeping;
  timers_.push_back(TimerEntry{t, next_seq_++, me.id(), std::nullopt});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
  suspend_current();
}

void Runtime::park() {
  require_current("park").state_ = ThreadState::kWaitingMsg;
  suspend_current();
}

void Runtime::unpark(ThreadId id) {
  UThread* target = thread(id);
  if (target == nullptr) return;
  make_ready(*target);
  maybe_preempt(*target);
}

void Runtime::set_active_constraint(std::optional<Constraint> c) {
  UThread& me = require_current("set_active_constraint");
  me.active_constraint_ = std::move(c);
}

void Runtime::yield() {
  UThread& me = require_current("yield");
  me.state_ = ThreadState::kReady;
  me.ready_seq_ = next_seq_++;
  suspend_current();
}

// ---- Scheduling internals ------------------------------------------------------

void Runtime::thread_entry(void* arg) {
  auto* t = static_cast<UThread*>(arg);
  Runtime* rt = g_active_runtime;
  assert(rt != nullptr && "thread resumed outside an active Runtime::run()");
  rt->thread_main(*t);
  // thread_main never returns (it ends with a suspend in state kDone), but
  // keep the compiler honest:
  std::terminate();
}

void Runtime::thread_main(UThread& t) {
  for (;;) {
    if (t.mailbox_.empty()) {
      t.state_ = ThreadState::kWaitingMsg;
      suspend_current();
      continue;
    }
    Message m = pop_next_message(t);
    ++stats_.dispatches;
    // The dispatch choice IS the per-runtime schedule (ARCHITECTURE §18);
    // one relaxed load + branch when no recorder is installed.
    replay::note_dispatch(this, t.id(), m.type);
    t.active_constraint_ = m.constraint;
    CodeResult r = CodeResult::kTerminate;
    try {
      r = t.code_(*this, std::move(m));
    } catch (...) {
      errors_.emplace_back(t.name(), std::current_exception());
    }
    t.active_constraint_.reset();
    if (r == CodeResult::kTerminate) break;
    if (t.state_ == ThreadState::kDone) break;  // killed from within
  }
  t.state_ = ThreadState::kDone;
  suspend_current();
  std::terminate();  // unreachable: the scheduler never resumes a dead thread
}

void Runtime::suspend_current() {
  UThread* me = current_;
  assert(me != nullptr);
  current_ = nullptr;
  // Direct transfer: when a scheduler pass would do nothing but pick_next(),
  // make the same pick here and switch straight to it.
  UThread* next = nullptr;
  if (me->state_ != ThreadState::kDone && !stop_requested_ && !halted() &&
      !external_pending_.load(std::memory_order_acquire) &&
      (timers_.empty() || timers_.front().when > now()) && !io_poll_due()) {
    next = pick_next();
  }
  if (next == me) {
    enter(*me);
    return;
  }
  ++stats_.context_switches;
  if (next != nullptr) {
    enter(*next);
    Context::switch_to(me->context_, next->context_);
  } else {
    Context::switch_to(me->context_, sched_ctx_);
  }
}

void Runtime::enter(UThread& t) {
  if (!t.started_) {
    t.context_.init(t.stack_.top(), t.stack_.usable_size(),
                    &Runtime::thread_entry, &t);
    t.started_ = true;
  }
  t.state_ = ThreadState::kRunning;
  current_ = &t;
}

void Runtime::make_ready(UThread& t) {
  if (t.state_ == ThreadState::kWaitingMsg) {
    t.state_ = ThreadState::kReady;
    t.ready_seq_ = next_seq_++;
  }
  // Sleeping threads are not interruptible by messages; they pick the
  // message up when their timer fires. Running/ready threads need nothing.
}

void Runtime::maybe_preempt(const UThread& t) {
  if (!options_.preemption) return;
  UThread* me = current_thread();
  if (me == nullptr || me->id() == t.id()) return;
  if (t.state_ != ThreadState::kReady) return;
  if (t.effective_priority() > me->effective_priority()) {
    me->state_ = ThreadState::kReady;
    me->ready_seq_ = next_seq_++;
    ++stats_.preemptions;
    suspend_current();
  }
}

void Runtime::fire_due_timers() {
  const Time t_now = now();
  while (!timers_.empty() && timers_.front().when <= t_now) {
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    TimerEntry e = std::move(timers_.back());
    timers_.pop_back();
    ++stats_.timer_wakeups;
    IP_OBS_TRACE(tracer_, obs::Hop::kTimerFire, "rt",
                 static_cast<std::int64_t>(e.target));
    replay::note_timer(this, e.when, e.target);
    if (e.message) {
      send(e.target, std::move(*e.message));
    } else if (UThread* t = thread(e.target);
               t != nullptr && t->state_ == ThreadState::kSleeping &&
               t->wake_time_ == e.when) {
      t->wake_time_ = kTimeNever;
      t->state_ = ThreadState::kReady;
      t->ready_seq_ = next_seq_++;
    }
  }
}

UThread* Runtime::pick_next() {
  UThread* best = nullptr;
  for (auto& [id, t] : threads_) {
    if (t->state_ != ThreadState::kReady) continue;
    if (best == nullptr) {
      best = t.get();
      continue;
    }
    const Priority pb = best->effective_priority();
    const Priority pt = t->effective_priority();
    if (pt != pb) {
      if (pt > pb) best = t.get();
      continue;
    }
    const Time db = best->effective_deadline();
    const Time dt = t->effective_deadline();
    if (dt != db) {
      if (dt < db) best = t.get();
      continue;
    }
    if (t->ready_seq_ < best->ready_seq_) best = t.get();
  }
  return best;
}

bool Runtime::step(Time horizon) {
  // Externally injected messages (thread-safe path) enter the normal
  // delivery machinery here, on the scheduler's own OS thread.
  if (external_pending_.load(std::memory_order_acquire)) {
    std::vector<std::pair<ThreadId, Message>> batch;
    {
      std::lock_guard lk(external_mutex_);
      batch.swap(external_);
      unpark_batch_.swap(external_unparks_);
      external_pending_.store(false, std::memory_order_release);
    }
    for (auto& [to, msg] : batch) send(to, std::move(msg));
    // The two unpark vectors trade places, so neither reallocates in a
    // steady flow of remote wakes.
    for (const ThreadId id : unpark_batch_) unpark(id);
    unpark_batch_.clear();
  }

  // Reap terminated threads.
  std::erase_if(threads_, [](const auto& entry) {
    return entry.second->state_ == ThreadState::kDone;
  });

  fire_due_timers();
  if (io_poll_due()) wait_io(0);

  if (UThread* t = pick_next()) {
    enter(*t);
    ++stats_.context_switches;
    Context::switch_to(sched_ctx_, t->context_);
    return true;
  }

  // Idle: advance to the earliest timer within the horizon.
  if (!timers_.empty() && timers_.front().when <= horizon) {
    park_until(timers_.front().when);
    fire_due_timers();
    return true;
  }
  return false;
}

void Runtime::park_until(Time deadline) {
  if (clock_->is_virtual()) {
    static_cast<VirtualClock&>(*clock_).advance_to(deadline);
    return;
  }
  const Time entry = now();
  if (deadline <= entry) return;
  open_io();
  if (in_service_) {
    service_busy_ns_.fetch_add(static_cast<std::uint64_t>(entry - service_mark_),
                               std::memory_order_relaxed);
  }
  park_entry_.store(entry, std::memory_order_relaxed);
  // Dekker with wake(): publish parked_, then recheck both wake flags.
  parked_.store(true, std::memory_order_seq_cst);
  if (!external_pending_.load(std::memory_order_seq_cst) &&
      !halt_.load(std::memory_order_seq_cst)) {
    wait_io(deadline == kTimeNever ? -1 : deadline - entry);
  }
  parked_.store(false, std::memory_order_relaxed);
  if (in_service_) {
    service_mark_ = now();
    service_idle_ns_.fetch_add(static_cast<std::uint64_t>(service_mark_ - entry),
                               std::memory_order_relaxed);
  }
}

void Runtime::wait_io(Time timeout) {
  constexpr int kMaxEvents = 64;
  epoll_event evs[kMaxEvents];
  // Nanosecond timeout: a timer wait must neither spin nor round up to
  // epoll_wait's milliseconds.
  const timespec ts{static_cast<time_t>(timeout / seconds(1)),
                    static_cast<long>(timeout % seconds(1))};
  const int n = ::epoll_pwait2(epoll_fd_, evs, kMaxEvents,
                               timeout < 0 ? nullptr : &ts, nullptr);
  if (io_watched_ != 0) io_polled_at_ = now();
  for (int i = 0; i < n; ++i) {
    const int fd = evs[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t v;
      [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &v, sizeof v);
    } else if (static_cast<std::size_t>(fd) < io_bridges_.size() &&
               io_bridges_[static_cast<std::size_t>(fd)] != nullptr) {
      io_bridges_[static_cast<std::size_t>(fd)]->on_io(fd, evs[i].events);
    }
  }
}

bool Runtime::owned_here() const noexcept {
  return g_active_runtime == this || !in_run_;
}

void Runtime::watch_io(int fd, std::uint32_t events, IoBridge& bridge) {
  assert(owned_here());
  if (clock_->is_virtual()) {
    throw RuntimeError("Runtime::watch_io needs a real-clock runtime");
  }
  open_io();
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (fd < 0 || ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw RuntimeError(std::string("Runtime::watch_io: ") +
                       std::strerror(errno));
  }
  const auto i = static_cast<std::size_t>(fd);
  if (i >= io_bridges_.size()) io_bridges_.resize(i + 1, nullptr);
  io_bridges_[i] = &bridge;
  ++io_watched_;
}

void Runtime::unwatch_io(int fd) {
  assert(owned_here());
  const auto i = static_cast<std::size_t>(fd);
  if (fd < 0 || i >= io_bridges_.size() || io_bridges_[i] == nullptr) return;
  // Fails harmlessly (EBADF) when the caller already closed the fd.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  io_bridges_[i] = nullptr;
  --io_watched_;
}

void Runtime::run() { run_until(kTimeNever); }

void Runtime::run_until(Time t) { run_loop(t, /*service=*/false); }

void Runtime::run_service() {
  if (clock_->is_virtual()) {
    throw RuntimeError("Runtime::run_service needs a real clock");
  }
  run_loop(kTimeNever, /*service=*/true);
}

void Runtime::run_loop(Time t, bool service) {
  if (in_run_) throw RuntimeError("Runtime::run() is not reentrant");
  in_run_ = true;
  stop_requested_ = false;
  in_service_ = service;
  if (service) service_mark_ = now();
  ActiveRuntimeScope scope(this);
  // Item::of inside hosted threads allocates from this runtime's pool; the
  // scope also marks this kernel thread as the pool's owner for recycling.
  mem::PoolScope pool_scope(pool_);
  for (;;) {
    while (!stop_requested_ && !halted() && step(t)) {
    }
    if (halted()) break;
    if (service) {
      if (!errors_.empty()) break;
      // A stop only ends a stepping pass; the service loop runs on.
      if (std::exchange(stop_requested_, false)) continue;
    } else if (stop_requested_ || t == kTimeNever || clock_->is_virtual() ||
               now() >= t) {
      break;
    }
    // Real clock, quiescent: park until the horizon (for ever in service).
    park_until(t);
  }
  if (service) {
    service_busy_ns_.fetch_add(static_cast<std::uint64_t>(now() - service_mark_),
                               std::memory_order_relaxed);
    in_service_ = false;
  }
  in_run_ = false;
  if (t != kTimeNever && clock_->is_virtual() && now() < t) {
    static_cast<VirtualClock&>(*clock_).advance_to(t);
  }
  if (!errors_.empty()) {
    auto [name, ep] = errors_.front();
    errors_.clear();
    try {
      std::rethrow_exception(ep);
    } catch (const std::exception& e) {
      throw RuntimeError("uncaught exception in thread '" + name +
                         "': " + e.what());
    }
  }
}

}  // namespace infopipe::rt
