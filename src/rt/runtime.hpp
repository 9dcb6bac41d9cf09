// The Runtime: scheduler and message switch for user-level threads.
//
// All pipeline activity in the Infopipe middleware runs on user-level
// threads hosted by one OS thread and scheduled here. Scheduling is
// cooperative with preemption at dispatch points (send, receive, yield,
// sleep, timer expiry): when an operation makes a strictly
// higher-effective-priority thread runnable, the running thread is preempted
// immediately. This mirrors the paper's substrate, where "threads can be
// preempted in favor of threads driven by other pumps" while a component
// still never has two threads active inside it at once (§3.2).
//
// Priorities: each thread has a static priority; messages may carry
// Constraints whose priority overrides it while the message is processed
// ("the effective priority of a thread is derived by the scheduler from the
// constraint of the message that the thread is currently processing or, if
// the thread is waiting for the CPU, on the constraint of the first message
// in its incoming queue" — §4). A one-level priority-inheritance scheme
// boosts the callee of a synchronous call() to the caller's effective
// priority, avoiding priority inversion.
//
// Direct transfer: a suspending thread switches straight to the thread the
// scheduler would pick next, so a message hand-off between two threads costs
// one context switch. The scheduler context is entered only for external
// batches, due timers, stop or halt, thread termination and idling; it is
// the only place that reaps threads, injects post_external() messages,
// fires timers, polls file descriptors and parks. The pick is the same
// pick_next() on either path, so dispatch order does not depend on which
// path made it.
//
// One park point per kernel thread: a real-clock runtime owns one epoll set
// holding an eventfd and every file descriptor registered through
// rt::IoBridge, and it blocks in exactly one place —
// epoll_pwait2 on that set, with the earliest timer as the timeout.
// Readiness, timer expiry, post_external() and request_halt() all end the
// same wait, and readiness is handled right there on the runtime's own
// thread. A virtual-clock runtime never blocks: it jumps its clock to the
// next timer and never opens the descriptors.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/pool.hpp"
#include "obs/metrics.hpp"
#include "rt/clock.hpp"
#include "rt/reservation.hpp"
#include "rt/message.hpp"
#include "rt/uthread.hpp"

namespace infopipe::rt {

class IoBridge;

/// Thrown for API misuse (e.g. blocking operations outside a thread) and for
/// calls to dead threads.
class RuntimeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Scheduler policy switches. Defaults reproduce the paper's design; each
/// can be disabled for the ablation experiments (bench_ablation.cpp) that
/// show why the design needs it.
struct RuntimeOptions {
  /// §2.2: control-class messages overtake queued data.
  bool control_overtakes_data = true;
  /// §4: synchronous callees inherit the caller's effective priority.
  bool priority_inheritance = true;
  /// Preempt at dispatch points when a higher-priority thread wakes.
  bool preemption = true;
};

class Runtime {
 public:
  using Options = RuntimeOptions;

  /// Constructs a runtime over the given clock (defaults to a deterministic
  /// VirtualClock starting at t=0).
  explicit Runtime(std::unique_ptr<Clock> clock = nullptr,
                   Options options = Options());
  ~Runtime();

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- Thread management -------------------------------------------------

  /// Creates a thread. Its code function runs once per received message; the
  /// thread is destroyed when the code function returns kTerminate.
  ThreadId spawn(std::string name, Priority priority, CodeFunction code,
                 std::size_t stack_size = Stack::kDefaultSize);

  /// True while the thread exists and has not terminated.
  [[nodiscard]] bool alive(ThreadId id) const noexcept;

  /// Id of the currently executing thread, or kNoThread when called from the
  /// scheduler / outside run().
  [[nodiscard]] ThreadId current() const noexcept;

  /// Direct access for tests and diagnostics; nullptr if dead.
  [[nodiscard]] UThread* thread(ThreadId id) noexcept;

  /// Forcibly terminates a thread. The thread's stack is NOT unwound (no
  /// destructors on its stack run); intended for failure-injection tests and
  /// last-resort teardown only. Prefer sending a message that makes the code
  /// function return kTerminate.
  void kill(ThreadId id);

  // ---- Messaging ---------------------------------------------------------

  /// Asynchronous send. May be called from inside any thread or from outside
  /// the runtime (to stimulate it between run() calls). Sends to dead
  /// threads are counted in stats().messages_dropped and otherwise ignored.
  void send(ThreadId to, Message m);

  /// Deliver `m` to `to` when the clock reaches `t`.
  void send_at(Time t, ThreadId to, Message m);

  /// Removes pending send_at() timers addressed to `to` whose message type
  /// is `type`; returns how many were dropped. Protocol code uses this to
  /// retire a timeout whose operation completed — a pending timer otherwise
  /// keeps run() from going quiescent, which under a RealClock is a
  /// real-time stall until the dead timeout fires.
  std::size_t cancel_timers(ThreadId to, int type);

  /// Thread-safe injection from OUTSIDE the scheduler's OS thread (the
  /// only Runtime entry points with that property, with request_halt() and
  /// unpark_external()). run_on() and other kernel threads use it. The
  /// message joins a mutex-guarded batch that the scheduler delivers at the
  /// next suspension of any thread. The poster wakes the runtime only when
  /// it has published that it is parked: a post to a running runtime costs
  /// one lock and one load, a post to a parked one adds one eventfd write.
  void post_external(ThreadId to, Message m);

  /// Synchronous call: sends `m` with a fresh request_id and blocks until
  /// the matching kReply arrives. While blocked, the callee inherits the
  /// caller's effective priority. Control-class messages addressed to the
  /// caller are NOT consumed (they stay queued; use ipcore's blocking
  /// hand-off for control-responsive waits). Only callable from a thread.
  Message call(ThreadId to, Message m);

  /// Sends a kReply correlated with `request` back to its sender.
  void reply(const Message& request, Message response);

  // ---- Blocking primitives (only from inside a thread) --------------------

  using MsgPredicate = std::function<bool(const Message&)>;

  /// Blocks until any message is available and returns it. Control-class
  /// messages are delivered ahead of older data-class ones.
  Message receive();

  /// Blocks until a message matching `pred` is available; non-matching
  /// messages remain queued in order.
  Message receive_matching(const MsgPredicate& pred);

  /// Non-blocking: extracts the first queued message matching `pred`.
  std::optional<Message> try_receive(const MsgPredicate& pred);

  void sleep_until(Time t);
  void sleep_for(Time d) { sleep_until(now() + d); }

  /// Suspends the current thread until unpark() or any message wakes it.
  /// The wake may be spurious: callers re-check their own condition.
  void park();

  /// Wakes a thread suspended in park() or between messages, as send()
  /// wakes its target (including the preemption check) but without a
  /// message. A thread that is running, ready or sleeping is left alone.
  void unpark(ThreadId id);

  /// unpark() from OUTSIDE the scheduler's OS thread: the request rides the
  /// post_external() batch and eventfd wake, and takes effect when the
  /// scheduler injects that batch. A request for a dead thread is ignored.
  void unpark_external(ThreadId id);

  /// True when a control-class message is queued for the current thread.
  [[nodiscard]] bool control_queued() const noexcept {
    return current_ != nullptr && current_->queued_control_ > 0;
  }

  /// The constraint governing the current thread (what its sends inherit).
  [[nodiscard]] std::optional<Constraint> active_constraint() const noexcept {
    return current_ != nullptr ? current_->active_constraint_ : std::nullopt;
  }

  /// Replaces the constraint governing the current thread's effective
  /// priority (normally the constraint of the message being processed).
  /// Pumps use this to refresh their deadline each cycle; because sends
  /// inherit the active constraint, the whole coroutine set follows (§4).
  void set_active_constraint(std::optional<Constraint> c);

  /// Preemption point: lets any thread of >= effective priority run.
  void yield();

  // ---- Clock ---------------------------------------------------------------

  [[nodiscard]] Time now() const { return clock_->now(); }
  [[nodiscard]] Clock& clock() noexcept { return *clock_; }

  // ---- Scheduling loop (from the hosting OS thread) ------------------------

  /// Runs until quiescent: no runnable thread and no pending timer, even
  /// with file descriptors registered. Threads blocked in receive() stay
  /// alive; a later send()+run() resumes them. Rethrows the first exception
  /// that escaped a code function, if any.
  void run();

  /// Runs until the clock reaches `t` (inclusive of timers at `t`) or until
  /// quiescence, whichever is later in processing terms; under a virtual
  /// clock the clock is advanced to exactly `t` before returning. Under a
  /// real clock a quiescent runtime parks until `t`; readiness, posts and
  /// halts end the park early.
  void run_until(Time t);

  /// Makes run() return at the next dispatch point.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Thread-safe, STICKY variant of request_stop() for runtimes hosted on a
  /// dedicated kernel thread: run()/run_until()/run_service() return at the
  /// next dispatch point and every subsequent run() returns immediately
  /// until clear_halt(). Unlike request_stop() (reset on run entry, so a
  /// cross-thread request can be lost to the race with a starting run), a
  /// halt posted from any thread is never missed: it wakes a parked runtime
  /// the way post_external() does.
  void request_halt() noexcept;
  [[nodiscard]] bool halted() const noexcept {
    return halt_.load(std::memory_order_acquire);
  }
  /// Re-arms a halted runtime (call from the host thread, between runs).
  void clear_halt() noexcept { halt_.store(false, std::memory_order_release); }

  /// Host loop for a real-clock runtime owned by a dedicated kernel thread:
  /// run until quiescent, park in the epoll set (timers, readiness, posts),
  /// repeat — until request_halt(). Rethrows the first exception that
  /// escaped a code function, like run(). Throws RuntimeError under a
  /// virtual clock, which has nothing to park on.
  void run_service();

  // ---- Introspection -------------------------------------------------------

  struct Stats {
    std::uint64_t context_switches = 0;  ///< Context::switch_to invocations
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_dropped = 0;  ///< sends to dead threads
    std::uint64_t timer_wakeups = 0;
    std::uint64_t threads_spawned = 0;
    std::uint64_t preemptions = 0;   ///< involuntary suspensions
    std::uint64_t dispatches = 0;    ///< code-function invocations
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Structured observability (src/obs/): counters/gauges/histograms
  /// timestamped by this runtime's clock. The runtime's own hot-path
  /// counters (the Stats struct above) are published into every snapshot as
  /// `rt.*` rows by a built-in collector, so the scheduler loop pays no
  /// extra cost for them.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// This runtime's payload pool (src/mem/): installed as the thread's
  /// current pool while the scheduling loop runs, so Item::of inside any
  /// hosted user-level thread allocates here. Immortal (detached, not
  /// destroyed, when the runtime dies) so payloads may outlive the runtime.
  /// Its counters appear as mem.pool.* rows in every metrics snapshot.
  [[nodiscard]] mem::Pool& pool() noexcept { return *pool_; }

  /// CPU reservation table (admission control for pumps, §3.1).
  [[nodiscard]] ReservationManager& reservations() noexcept {
    return reservations_;
  }

  /// Number of live (not yet terminated) threads.
  [[nodiscard]] std::size_t live_threads() const noexcept;

  /// Cumulative wall-clock time run_service() spent outside its park point
  /// (busy) vs inside it (idle), in nanoseconds of the real clock. Both
  /// advance at every park entry and exit, so a shard that always has a
  /// timer pending reports while it runs; one that never parks moves
  /// neither until it does (see parked()). Thread-safe reads; the load
  /// accountant (ip_balance) differences successive samples into a busy
  /// fraction per shard. Zero until the runtime is hosted via
  /// run_service().
  [[nodiscard]] std::uint64_t service_busy_ns() const noexcept {
    return service_busy_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t service_idle_ns() const noexcept {
    return service_idle_ns_.load(std::memory_order_relaxed);
  }
  /// True while the runtime waits in its park point. Thread-safe read; a
  /// wake clears it as it writes the eventfd, a moment before the wait
  /// returns.
  [[nodiscard]] bool parked() const noexcept {
    return parked_.load(std::memory_order_relaxed);
  }
  /// While parked(): the runtime-clock time the current park began, whose
  /// idle time service_idle_ns() adds only at the park's exit; nullopt when
  /// the runtime is not parked. Thread-safe read.
  [[nodiscard]] std::optional<Time> parked_since() const noexcept {
    if (!parked_.load(std::memory_order_acquire)) return std::nullopt;
    return park_entry_.load(std::memory_order_relaxed);
  }

 private:
  // ---- File descriptors (real clock only; the IoBridge facade) -------------
  friend class IoBridge;

  /// Adds `fd` to the epoll set with `events` (EPOLLIN, EPOLLET, ...). The
  /// bridge's on_io() gets what the set reports, on this runtime's thread,
  /// from the scheduler: no user-level thread is current, so a send() from
  /// it never preempts. Must run on the runtime's own thread or while no
  /// thread runs it (asserted in debug builds). Throws RuntimeError under a
  /// virtual clock or when epoll_ctl fails.
  void watch_io(int fd, std::uint32_t events, IoBridge& bridge);
  void unwatch_io(int fd);

  /// True on the kernel thread inside this runtime's run loop, or while no
  /// thread runs it: where the non-thread-safe surface may be used.
  [[nodiscard]] bool owned_here() const noexcept;

  struct TimerEntry {
    Time when;
    std::uint64_t seq;  // FIFO among equal times
    ThreadId target;
    std::optional<Message> message;  // nullopt => wake sleeping thread
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  static void thread_entry(void* arg);
  void thread_main(UThread& t);

  /// Extracts the next message honouring control-before-data ordering.
  Message pop_next_message(UThread& t);

  /// Switches away from the current thread, whose new state is already
  /// set: straight to pick_next()'s choice when a scheduler pass would do
  /// nothing else (direct transfer), otherwise to the scheduler context.
  void suspend_current();

  /// Makes `t` the running thread, initializing its context on first entry.
  void enter(UThread& t);

  /// Marks a thread runnable (idempotent).
  void make_ready(UThread& t);

  /// If `t` now outranks the running thread, preempt at this dispatch point.
  void maybe_preempt(const UThread& t);

  /// Fires all timers that are due at `now()`.
  void fire_due_timers();

  /// Picks the runnable thread with the highest (effective priority,
  /// earliest deadline, FIFO) rank; nullptr if none.
  UThread* pick_next();

  /// Runs one scheduling step; returns false when quiescent.
  bool step(Time horizon);

  /// run_until() and run_service(): the latter parks instead of returning
  /// when quiescent.
  void run_loop(Time t, bool service);

  /// The park point: advances a virtual clock to `deadline`, or blocks in
  /// the epoll set until `deadline` unless a post or halt is pending.
  void park_until(Time deadline);

  /// Waits in the epoll set for up to `timeout` ns (0: poll, negative: no
  /// limit) and hands every reported descriptor to its IoBridge.
  void wait_io(Time timeout);

  /// Opens the epoll set and its eventfd on first need (a real-clock
  /// runtime that never parks or watches an fd never opens them).
  void open_io();

  /// Wakes a parked runtime (thread-safe). wake_fd_ is read only after
  /// parked_ was seen set, which park_until() stores after open_io().
  void wake() noexcept;

  /// A runtime that never idles still polls its descriptors: true when
  /// any are registered and the last poll is kIoPollInterval old.
  [[nodiscard]] bool io_poll_due() const {
    return io_watched_ != 0 && now() - io_polled_at_ >= kIoPollInterval;
  }
  static constexpr Time kIoPollInterval = microseconds(100);

  UThread* current_thread() noexcept { return current_; }
  UThread& require_current(const char* op);

  std::unique_ptr<Clock> clock_;
  Options options_;
  mem::Pool* pool_;  ///< immortal; see pool()
  ReservationManager reservations_;
  obs::MetricsRegistry metrics_;
  std::mutex external_mutex_;
  std::vector<std::pair<ThreadId, Message>> external_;
  std::vector<ThreadId> external_unparks_;
  std::vector<ThreadId> unpark_batch_;  ///< scheduler side of the swap
  std::atomic<bool> external_pending_{false};
  std::atomic<bool> halt_{false};
  /// Published by the runtime before it rechecks external_pending_ and
  /// parks; a poster that sets external_pending_ and then sees it writes
  /// the eventfd (the same Dekker as core/buffer.hpp's waiter slot).
  std::atomic<bool> parked_{false};
  std::atomic<Time> park_entry_{0};  ///< see parked_since()
  int epoll_fd_ = -1;  ///< real clock only; see open_io()
  int wake_fd_ = -1;   ///< eventfd in the epoll set
  std::vector<IoBridge*> io_bridges_;  ///< by fd
  std::size_t io_watched_ = 0;
  Time io_polled_at_ = 0;
  std::atomic<std::uint64_t> service_busy_ns_{0};
  std::atomic<std::uint64_t> service_idle_ns_{0};
  Time service_mark_ = 0;  ///< last park exit; see service_busy_ns()
  bool in_service_ = false;
  std::unordered_map<ThreadId, std::unique_ptr<UThread>> threads_;
  std::vector<TimerEntry> timers_;  // min-heap via TimerLater
  Context sched_ctx_;
  UThread* current_ = nullptr;  ///< set by enter(), cleared on suspension
  ThreadId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_request_id_ = 1;
  bool in_run_ = false;
  bool stop_requested_ = false;
  Stats stats_;
  std::vector<std::pair<std::string, std::exception_ptr>> errors_;
};

}  // namespace infopipe::rt
