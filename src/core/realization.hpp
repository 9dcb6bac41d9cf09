// Realization: turning a planned pipeline into running threads (§4).
//
// The Infopipe platform creates one thread per pump (driver). If a section
// needs no coroutines, the pump's thread calls the pull functions of all
// components upstream, then push with the returned item downstream, and
// returns to the pump. Where the plan requires coroutines, each one is
// implemented by an additional thread of the underlying package, and their
// synchronous interaction ("the activity travels with the data") is a typed
// rendezvous: the items, the requester and its scheduling constraint are
// written into the coroutine's slot and the peer is unparked, with no
// message and no envelope. One hand-off carries a whole span: a pusher's
// burst, taken item by item without a switch, or a puller's room, filled
// by one upstream take. A thread blocked in a push or pull is parked
// until either its slot is served OR a control message arrives — control
// events are dispatched even while a component is logically blocked
// (§3.2/§4). Threads that host several directly-called components dispatch
// data and control internally to the respective components.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/buffer.hpp"
#include "core/component.hpp"
#include "core/event.hpp"
#include "core/introspect.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"
#include "core/pump.hpp"
#include "core/realization_handle.hpp"
#include "obs/metrics.hpp"
#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe {

namespace detail {

/// rt message types used by the middleware glue (values allotted in
/// rt/msg_registry.hpp, the one place new subsystems claim ranges).
enum CoreMsgType : int {
  kMsgControl = rt::msg::kCoreControl,  ///< control event dispatch
  kMsgCoPull = rt::msg::kCoreCoPull,    ///< start an idle coroutine (pull)
  kMsgCoItem = rt::msg::kCoreCoItem,    ///< start an idle coroutine (push)
  kMsgTick = rt::msg::kCoreTick,        ///< pump timer tick
};

struct ControlDispatch {
  Component* target = nullptr;  ///< nullptr: every component on the thread
  Event event;
};

/// Thrown out of waits when the realization is shutting down; unwinds the
/// component frames on the thread's stack, then the thread terminates.
struct ShutdownSignal {};

/// Thrown out of buffer waits when the section's driver stopped while the
/// thread was blocked; the driver loop treats it as a clean stop.
struct StopFlow {};

/// Per-coroutine state: the component's main function and the slot of its
/// synchronous hand-off channel (§4 maps push and pull between coroutines
/// onto inter-thread communication; here it is a rendezvous, not a
/// message). One hand-off carries a whole span. A coroutine is used in one
/// direction only, so one span field serves both: a pusher's items, or the
/// room a puller hands over to be filled.
struct CoroutineRec {
  Component* comp = nullptr;
  rt::ThreadId tid = rt::kNoThread;
  std::function<void()> main;
  ItemSpan span;                ///< the pusher's items / the puller's room
  std::size_t pos = 0;          ///< push: next item to take; pull: filled
  bool full = false;            ///< the filled room awaits its taker (pull)
  bool want = false;            ///< a room awaits items (pull)
  bool done = true;             ///< the pusher may return (push)
  rt::ThreadId requester = rt::kNoThread;
  std::optional<rt::Constraint> constraint;  ///< the requester's, adopted
  bool running = false;         ///< main is on the coroutine's stack
  bool finished = false;        ///< saw end-of-stream
  /// The coroutine's own end of the section: push mode sends its gathered
  /// outputs downstream, pull mode takes its inputs from upstream.
  PushSpanFn downstream;
  PullSpanFn upstream;
  /// Push: outputs gathered for the next downstream span. Pull: the
  /// `taken` items of the last upstream take, `next` the first one not yet
  /// processed. Never more than kBurstCap items.
  std::vector<Item> scratch;
  std::size_t next = 0;
  std::size_t taken = 0;
};

}  // namespace detail

class Realization;

/// Per-thread execution context created by the realization: knows which
/// components the thread hosts (for control dispatch) and provides the
/// control-responsive wait primitive that all blocking operations
/// (coroutine hand-offs, buffer waits, pump timing) are built on.
class HostContext {
 public:
  using MsgPred = std::function<bool(const rt::Message&)>;

  [[nodiscard]] rt::Runtime& runtime() noexcept;
  [[nodiscard]] rt::ThreadId tid() const noexcept { return tid_; }
  [[nodiscard]] Realization& realization() noexcept { return *real_; }

  /// Blocks until a message matching `pred` arrives. Control events arriving
  /// meanwhile are dispatched to the hosted components (this is how a
  /// component "blocked in a push or pull" still handles control, §3.2).
  /// Throws detail::ShutdownSignal when a shutdown event is dispatched.
  rt::Message wait(const MsgPred& pred);

  /// Like wait(), but also returns (with nullopt) after dispatching any
  /// control event, so the caller can re-check state that the event may have
  /// changed.
  std::optional<rt::Message> wait_interruptible(const MsgPred& pred);

  /// Returns once `ready()` holds, parking in between; wakes come from
  /// rt::Runtime::unpark() or any message. A queued control event is
  /// dispatched before ready() is checked (§3.2). The interruptible form
  /// returns false after dispatching one, so the caller can re-check state
  /// the event may have changed (buffers use this to notice STOP/FLUSH).
  template <typename Ready>
  bool await(Ready ready, bool interruptible = false) {
    for (;;) {
      if (runtime().control_queued()) {
        dispatch_while_blocked();
        if (interruptible) return false;
        continue;
      }
      if (ready()) return true;
      runtime().park();
    }
  }

  /// Dispatches all queued control events without blocking.
  void poll_control();

  /// True once kEventShutdown has been dispatched on this thread.
  [[nodiscard]] bool terminate_requested() const noexcept {
    return terminate_;
  }

  /// The driver whose section this thread belongs to (the driver itself for
  /// driver threads, the section's driver for coroutine threads).
  [[nodiscard]] Driver* section_driver() const noexcept { return driver_; }

  /// True when this thread's flow has been stopped (driver not running).
  [[nodiscard]] bool flow_stopped() const noexcept {
    return driver_ != nullptr && !driver_->running_;
  }

  [[nodiscard]] const std::vector<Component*>& hosted() const noexcept {
    return hosted_;
  }

 private:
  friend class Realization;
  friend class Wiring;

  HostContext(Realization& r, rt::ThreadId tid) : real_(&r), tid_(tid) {}

  /// Handles one control message: runs middleware lifecycle side effects
  /// (START/STOP/SHUTDOWN flags) and the targeted components' handlers.
  void dispatch(rt::Message&& m);

  /// Dispatches the first queued control message to a thread that is
  /// logically blocked; throws detail::ShutdownSignal on shutdown.
  void dispatch_while_blocked();

  Realization* real_;
  rt::ThreadId tid_;
  std::vector<Component*> hosted_;
  Driver* driver_ = nullptr;
  bool terminate_ = false;
  std::uint64_t tick_gen_ = 0;
};

/// Serializes a shared region (downstream of a MergeTee / upstream of a
/// BalancingSwitch) so only one thread is active in it at a time, while the
/// owner may re-enter (a control handler may run in a component whose data
/// processing is blocked in a push/pull on this very thread — §3.2 allows
/// exactly that).
class SectionLock {
 public:
  void acquire(HostContext& h);
  void release(HostContext& h);
  [[nodiscard]] rt::ThreadId owner() const noexcept { return owner_; }

 private:
  rt::ThreadId owner_ = rt::kNoThread;
  int depth_ = 0;
  std::vector<rt::ThreadId> waiters_;
};

/// A realized pipeline: plans, spawns the threads, generates the glue, and
/// routes control events. Owns nothing of the components themselves — they
/// stay owned by the application and can be realized again after this
/// Realization is destroyed.
class Realization : public RealizationHandle {
 public:
  Realization(rt::Runtime& rt, const Pipeline& p);
  /// Same, but shares ownership of the pipeline: the realization keeps it
  /// alive, so `Realization real(rtm, (a >> b >> c).share());` is safe even
  /// when the Chain temporary is gone. (The reference-taking overload
  /// requires the caller to keep the Pipeline alive — the classic footgun
  /// with `chain.pipeline()` on a discarded Chain.)
  Realization(rt::Runtime& rt, std::shared_ptr<const Pipeline> p);
  ~Realization() override;

  Realization(const Realization&) = delete;
  Realization& operator=(const Realization&) = delete;

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] rt::Runtime& runtime() noexcept { return *rt_; }

  // -- lifecycle (all of these just post events; drive with rt.run()) --------

  /// THE lifecycle entry point: broadcasts one control event to every
  /// component, in pipeline order per thread. Everything that starts,
  /// stops or tears down a realized pipeline is a spelling of control():
  /// the start()/stop()/shutdown() members (inherited from
  /// RealizationHandle) forward here, and raw post_event(Event{...}) is the
  /// same call with the Event spelled out. There is exactly one behaviour
  /// behind all of them.
  void control(const Event& e) override { post_event(e); }
  using RealizationHandle::control;  // the control(int) spelling

  // -- control events (§2.2) ---------------------------------------------------

  /// Broadcast to every component, in pipeline order per thread.
  void post_event(const Event& e) override;
  /// Thread-safe broadcast from OUTSIDE this realization's runtime thread
  /// (built on rt::Runtime::post_external): the event enqueues onto the
  /// owning runtime and is delivered at its dispatch points, so the
  /// deliver-while-blocked semantics (§3.2) are preserved across kernel
  /// threads. The event listener is NOT invoked (it would run on the
  /// foreign caller's thread). This is how a ShardGroup forwards control
  /// events between shards.
  void post_event_external(const Event& e);
  /// Local delivery to one component.
  void post_event_to(Component& c, const Event& e);
  /// Thread-safe targeted delivery from OUTSIDE this realization's runtime
  /// thread: the component→host map is immutable after construction and the
  /// message goes through rt::Runtime::post_external, so a feedback loop on
  /// another shard can steer a component here purely via control events.
  void post_event_to_external(Component& c, const Event& e);
  /// Delayed delivery (used by netpipes to impose network latency on
  /// control events crossing to a remote component, §2.4).
  void post_event_to_after(Component& c, const Event& e, rt::Time delay);
  /// Observer for broadcast events (runs on the caller of post_event).
  void set_event_listener(std::function<void(const Event&)> fn) {
    listener_ = std::move(fn);
  }

  // -- introspection -------------------------------------------------------------

  /// The hosted component with this name, or nullptr. Names are the
  /// application's own; the first match wins when names collide. This is the
  /// lookup behind the feedback toolkit's named sensor/actuator endpoints.
  [[nodiscard]] Component* find_component(std::string_view name) const;

  [[nodiscard]] rt::ThreadId host_thread(const Component& c) const;
  /// Whether this realization hosts the component (a sharded flow has one
  /// realization per shard; the balancer uses this to find which one a
  /// component lives on after migrations).
  [[nodiscard]] bool hosts(const Component& c) const noexcept {
    return host_of_comp_.count(&c) != 0;
  }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return all_threads_.size();
  }
  /// Drivers currently pumping (running flag set).
  [[nodiscard]] int running_drivers() const;
  /// True once every driver has stopped (STOP or end-of-stream).
  [[nodiscard]] bool finished() const { return running_drivers() == 0; }

  /// What the planner decided, as data: sections, drivers, the mode and
  /// activity style of every hosted component, and where coroutines were
  /// allocated. Tests and tools consume this directly.
  [[nodiscard]] PlanInfo plan_info() const override;

  /// Runtime statistics as data: items pumped per driver, buffer
  /// fill/drops/blocks, timestamped by the runtime clock. Built from pure
  /// reads of counters the middleware only mutates between dispatch points,
  /// so calling it from an event listener while the flow is blocked yields
  /// a consistent picture (fill == puts - takes holds for every buffer).
  [[nodiscard]] StatsSnapshot stats_snapshot() override;

  /// The owning runtime's registry rows (core.*, rt.*, pipe.*; the
  /// realization's collector folds stats_snapshot() in as pipe.* rows).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() override {
    return rt_->metrics().snapshot();
  }

  /// HostContext of the calling user-level thread. Middleware-internal.
  [[nodiscard]] HostContext& current_host();

  /// Hot-path metric handles, resolved once against the runtime's registry
  /// at construction. Middleware-internal (the glue increments these).
  struct ObsHooks {
    obs::Counter* handoffs = nullptr;          ///< core.handoffs
    obs::Histogram* handoff_ns = nullptr;      ///< core.handoff_ns
    obs::Counter* control_dispatched = nullptr;    ///< core.control_dispatched
    obs::Counter* control_while_blocked = nullptr; ///< core.control_while_blocked
    obs::Counter* driver_cycles = nullptr;     ///< core.driver_cycles
    obs::Histogram* batch_items = nullptr;     ///< core.batch_items (per fire)
  };
  [[nodiscard]] ObsHooks& obs_hooks() noexcept { return obs_; }

 private:
  friend class HostContext;
  friend class Wiring;

  /// Shared downstream/upstream region behind a merge/balancing tee.
  struct SharedTail {
    SectionLock lock;
    PushSpanFn push;  ///< set for merge tails
    PullSpanFn pull;  ///< set for balancing heads
  };

  HostContext& new_host(rt::ThreadId tid);
  void run_driver(HostContext& h, Driver& d);
  rt::CodeResult driver_code(HostContext& h, Driver& d, rt::Message m);
  rt::CodeResult coroutine_code(HostContext& h, detail::CoroutineRec& rec,
                                rt::Message m);
  void unbind_components();

  rt::Runtime* rt_;
  const Pipeline* pipe_;
  std::shared_ptr<const Pipeline> pipe_owner_;  ///< set by the sharing ctor
  Plan plan_;
  ObsHooks obs_;
  obs::MetricsRegistry::CollectorId obs_collector_ = 0;
  std::vector<std::unique_ptr<HostContext>> hosts_;
  std::map<rt::ThreadId, HostContext*> host_by_tid_;
  std::map<const Component*, rt::ThreadId> host_of_comp_;
  std::vector<rt::ThreadId> all_threads_;
  std::vector<std::unique_ptr<detail::CoroutineRec>> coroutines_;
  std::vector<std::unique_ptr<SharedTail>> tails_;
  std::function<void(const Event&)> listener_;
};

}  // namespace infopipe
