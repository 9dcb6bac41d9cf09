#include "core/realization.hpp"

#include <cassert>
#include <utility>

#include "core/tee.hpp"
#include "replay/hooks.hpp"

namespace infopipe {

using detail::ControlDispatch;
using detail::CoroutineRec;
using detail::ShutdownSignal;
using detail::StopFlow;

// ============================ HostContext ===================================

rt::Runtime& HostContext::runtime() noexcept { return real_->runtime(); }

rt::Message HostContext::wait(const MsgPred& pred) {
  for (;;) {
    if (auto m = wait_interruptible(pred)) return std::move(*m);
  }
}

std::optional<rt::Message> HostContext::wait_interruptible(
    const MsgPred& pred) {
  rt::Message m = runtime().receive_matching([&](const rt::Message& x) {
    return x.cls == rt::MsgClass::kControl || pred(x);
  });
  if (m.cls != rt::MsgClass::kControl) return m;
  // §3.2 in action: a control event delivered to a logically blocked thread.
  real_->obs_hooks().control_while_blocked->inc();
  dispatch(std::move(m));
  if (terminate_) throw ShutdownSignal{};
  return std::nullopt;
}

void HostContext::dispatch_while_blocked() {
  // A control message is queued, so this returns without blocking.
  (void)wait_interruptible([](const rt::Message&) { return false; });
}

void HostContext::poll_control() {
  rt::Runtime& rt = runtime();
  if (!rt.control_queued()) return;  // the common case: no mailbox walk
  while (auto m = rt.try_receive([](const rt::Message& x) {
           return x.cls == rt::MsgClass::kControl;
         })) {
    dispatch(std::move(*m));
    if (terminate_) throw ShutdownSignal{};
  }
}

void HostContext::dispatch(rt::Message&& in) {
  // The payload dies in this frame. driver_code runs the whole flow under
  // the caller's frame after this returns, and a teardown mid-flow kills
  // that fiber without unwinding it.
  rt::Message m = std::move(in);
  ControlDispatch* cd = m.get<ControlDispatch>();
  if (cd == nullptr) return;
  const Event e = std::move(cd->event);
  std::vector<Component*> targets;
  if (cd->target != nullptr) {
    targets.push_back(cd->target);
  } else {
    targets = hosted_;
  }
  real_->obs_hooks().control_dispatched->inc(targets.size());
  replay::note_hop(&runtime(), replay::Hop::kControl, [&] {
    return replay::HopArgs{"control", e.type,
                           static_cast<std::int64_t>(targets.size())};
  });
  for (Component* c : targets) {
    // Middleware lifecycle side effects first.
    switch (e.type) {
      case kEventStart:
        c->running_ = true;
        break;
      case kEventStop:
        c->running_ = false;
        break;
      case kEventShutdown:
        c->running_ = false;
        terminate_ = true;
        break;
      default:
        break;
    }
    // §3.2: a control handler never runs while the component is processing
    // data. Within this thread that holds structurally (we only dispatch at
    // wait points); for components in shared regions the section lock keeps
    // other threads' data processing out. The lock is re-entrant for the
    // owner — that is precisely the "blocked in a push or pull" case in
    // which the paper allows control delivery.
    if (c->shared_lock_ != nullptr) {
      c->shared_lock_->acquire(*this);
      try {
        c->handle_event(e);
      } catch (...) {
        c->shared_lock_->release(*this);
        throw;
      }
      c->shared_lock_->release(*this);
    } else {
      c->handle_event(e);
    }
  }
}

// ============================ SectionLock ====================================

void SectionLock::acquire(HostContext& h) {
  const rt::ThreadId me = h.tid();
  if (owner_ == me) {
    ++depth_;
    return;
  }
  if (owner_ == rt::kNoThread) {
    owner_ = me;
    depth_ = 1;
    return;
  }
  waiters_.push_back(me);
  h.await([this, me] { return owner_ == me; });  // release() hands it over
}

void SectionLock::release(HostContext& h) {
  assert(owner_ == h.tid());
  if (--depth_ > 0) return;
  owner_ = rt::kNoThread;
  if (!waiters_.empty()) {
    owner_ = waiters_.front();
    waiters_.erase(waiters_.begin());
    depth_ = 1;  // the new owner may re-enter before it resumes (control)
    h.runtime().unpark(owner_);
  }
}

// ===================== coroutine channel protocol ============================
//
// Requester side: a thread that treats the coroutine like a passive
// component. push() hands a whole span over and returns when the coroutine
// asks for input past its end ("the activity travels with the data");
// pull() hands over a room and blocks until the coroutine hands it back
// filled. Both write the coroutine's slot and unpark it; an idle coroutine
// (main not on its stack) is started by an activation message instead.
// Either side waits only at a burst boundary, through HostContext::await,
// so that is where control events reach a coroutine (§3.2).

namespace {

/// Hands the slot to the coroutine: unparks a running main, or starts an
/// idle one (the activation inherits the requester's constraint).
void co_wake(rt::Runtime& rtm, CoroutineRec& rec, int activation) {
  rec.constraint = rtm.active_constraint();
  if (rec.running) {
    rtm.unpark(rec.tid);
  } else {
    rtm.send(rec.tid, rt::Message{activation, rt::MsgClass::kData});
  }
}

void note_handoff(Realization& R, rt::Runtime& rtm, rt::Time t0) {
  Realization::ObsHooks& ob = R.obs_hooks();
  ob.handoffs->inc();
  ob.handoff_ns->record(rtm.now() - t0);
}

void channel_push(Realization& R, CoroutineRec& rec, ItemSpan xs) {
  HostContext& h = R.current_host();
  rt::Runtime& rtm = h.runtime();
  const rt::Time t0 = rtm.now();
  rec.span = xs;
  rec.pos = 0;
  rec.done = false;
  rec.requester = h.tid();
  co_wake(rtm, rec, detail::kMsgCoItem);
  h.await([&rec] { return rec.done; });
  note_handoff(R, rtm, t0);
  replay::note_hop(&rtm, replay::Hop::kHandOff, [&] {
    return replay::HopArgs{"co.push", static_cast<std::int64_t>(rec.tid),
                           static_cast<std::int64_t>(xs.size())};
  });
}

std::size_t channel_pull(Realization& R, CoroutineRec& rec, ItemSpan room) {
  HostContext& h = R.current_host();
  rt::Runtime& rtm = h.runtime();
  const rt::Time t0 = rtm.now();
  rec.span = room;
  rec.pos = 0;
  rec.want = true;
  rec.requester = h.tid();
  co_wake(rtm, rec, detail::kMsgCoPull);
  h.await([&rec] { return rec.full; });
  rec.full = false;
  note_handoff(R, rtm, t0);
  replay::note_hop(&rtm, replay::Hop::kHandOff, [&] {
    return replay::HopArgs{"co.pull", static_cast<std::int64_t>(rec.tid),
                           static_cast<std::int64_t>(rec.pos)};
  });
  return rec.pos;
}

// Coroutine side, push direction: the gathered outputs leave as one span.
void co_flush(CoroutineRec& rec) {
  if (rec.scratch.empty()) return;
  struct Clear {
    std::vector<Item>& v;
    ~Clear() { v.clear(); }  // moved-from, or dead with a shutdown
  } clear{rec.scratch};
  rec.downstream(ItemSpan(rec.scratch));
}

// Coroutine side, push direction: one output joins the gathered span. A
// span of kBurstCap leaves at once; end-of-stream leaves alone, after it.
void co_emit(CoroutineRec& rec, Item y) {
  if (y.is_eos()) {
    co_flush(rec);
    rec.downstream(ItemSpan(&y, 1));
    return;
  }
  rec.scratch.push_back(std::move(y));
  if (rec.scratch.size() == kBurstCap) co_flush(rec);
}

// Coroutine side, push direction: release the pusher — that is the moment
// its push() returns.
void co_release_pusher(rt::Runtime& rtm, CoroutineRec& rec) {
  if (rec.done) return;
  rec.done = true;
  rec.span = {};
  rec.pos = 0;
  rtm.unpark(rec.requester);
}

// Coroutine side, push direction: the next input item, taken from the
// pusher's span without a switch. Past the span's end, the outputs it
// produced go downstream, the pusher is released and the next span is
// awaited. The coroutine runs the span under the constraint its pusher
// handed over (§4).
Item co_get_input(Realization& R, CoroutineRec& rec) {
  HostContext& h = R.current_host();
  if (rec.pos == rec.span.size()) {
    co_flush(rec);
    co_release_pusher(h.runtime(), rec);
    h.await([&rec] { return !rec.done; });
  }
  if (rec.pos == 0) h.runtime().set_active_constraint(rec.constraint);
  Item x = std::move(rec.span[rec.pos++]);
  if (x.is_eos()) {
    rec.finished = true;
    throw EndOfStream{};
  }
  return x;
}

// Coroutine side: main is returning (loop end / EOS); what it gathered goes
// downstream and the pusher is released. Inputs main never took are
// dropped, so the pusher is not left waiting. A push arriving from here on
// starts main again (or, once finished, is answered by coroutine_code).
void co_final_done(Realization& R, CoroutineRec& rec) {
  co_flush(rec);
  rec.running = false;
  for (Item& x : rec.span.subspan(rec.pos)) x = Item();
  co_release_pusher(R.current_host().runtime(), rec);
}

// Coroutine side, pull direction: block until a room is handed over, and
// run on behalf of that requester's constraint.
void co_need_pull(Realization& R, CoroutineRec& rec) {
  HostContext& h = R.current_host();
  h.await([&rec] { return rec.want; });
  h.runtime().set_active_constraint(rec.constraint);
}

// Coroutine side, pull direction: the room goes back to its requester. The
// last hand-back of a main marks it stopped first, so a pull arriving from
// then on starts main again.
void co_hand_back(Realization& R, CoroutineRec& rec, bool last = false) {
  if (last) rec.running = false;
  rec.want = false;
  rec.full = true;
  R.current_host().runtime().unpark(rec.requester);
}

// Coroutine side, pull direction: the burst ends before the coroutine could
// block, so the items filled so far go back.
void co_end_burst(Realization& R, CoroutineRec& rec) {
  if (rec.want && rec.pos > 0) co_hand_back(R, rec);
}

// Coroutine side, pull direction: one output into the room. If nobody asked
// yet, wait for the next pull — activity travels with the data, no implicit
// buffering (§3.3). A full room goes back at once; nil and EOS travel alone.
void co_deliver(Realization& R, CoroutineRec& rec, Item y, bool last = false) {
  const bool alone = !y.is_data();
  if (alone) co_end_burst(R, rec);
  if (!rec.want) co_need_pull(R, rec);
  rec.span[rec.pos++] = std::move(y);
  if (alone || rec.pos == rec.span.size()) co_hand_back(R, rec, last);
}

// Coroutine side, pull direction: the next input item. Past the last one
// taken, the burst ends, and one upstream take of at most the room left
// (and kBurstCap) waits for demand first. EndOfStream and StopFlow from
// upstream propagate.
Item co_pull_input(Realization& R, CoroutineRec& rec) {
  if (rec.next == rec.taken) {
    co_end_burst(R, rec);
    co_need_pull(R, rec);
    const std::size_t m = std::min(rec.span.size() - rec.pos, kBurstCap);
    if (rec.scratch.size() < m) rec.scratch.resize(m);
    rec.next = 0;
    rec.taken = 0;
    rec.taken = rec.upstream(ItemSpan(rec.scratch.data(), m));
  }
  return std::move(rec.scratch[rec.next++]);
}

// Coroutine side, pull direction: main is leaving without end-of-stream
// (STOP): a requester stuck in its pull gets the items filled so far, or a
// nil.
void co_leave(Realization& R, CoroutineRec& rec) {
  if (!rec.want) return;
  if (rec.pos == 0) rec.span[rec.pos++] = Item::nil();
  co_hand_back(R, rec, /*last=*/true);
}

}  // namespace

// ============================== Wiring ======================================
//
// Translates the Plan into executable glue: direct function calls where the
// Figure 9 rule allows them, coroutines elsewhere. The builders recurse over
// the pipeline graph exactly like the planner's walks did. Every link they
// build is a span link; a per-item style adapts at its own edge.

namespace {

/// End-of-stream travels as a one-item span of its own.
bool lone_eos(ItemSpan xs) { return xs.size() == 1 && xs[0].is_eos(); }

/// Turns a span link into the per-item form component code calls (a
/// one-item span per call).
PushFn one_item(PushSpanFn link) {
  return [link = std::move(link)](Item x) { link(ItemSpan(&x, 1)); };
}

PullFn one_item(PullSpanFn link) {
  return [link = std::move(link)]() {
    Item x;
    (void)link(ItemSpan(&x, 1));
    return x;
  };
}

}  // namespace

class Wiring {
 public:
  explicit Wiring(Realization& r) : R(r), pipe(*r.pipe_) {}

  void build() {
    for (auto& sec : R.plan_.sections) {
      Driver* d = sec.driver;
      current_driver_ = d;
      Realization* Rp = &R;
      const rt::ThreadId tid = R.rt_->spawn(
          d->name(), d->priority(), [Rp, d](rt::Runtime&, rt::Message m) {
            return Rp->driver_code(Rp->current_host(), *d, std::move(m));
          });
      HostContext& h = R.new_host(tid);
      h.driver_ = d;
      reg(*d, h, nullptr);
      if (d->out_port_count() > 0) {
        d->push_link_ = build_push(pipe.edge_from(*d, 0), h, nullptr);
        d->downstream_ = buffer_downstream(pipe.edge_from(*d, 0));
      }
      if (d->in_port_count() > 0) {
        d->pull_link_ = build_pull(pipe.edge_into(*d, 0), h, nullptr);
      }
    }
  }

 private:
  /// Register a component for control dispatch on `h` (idempotent; a buffer
  /// is reached from both of its sections and keeps its first host).
  void reg(Component& c, HostContext& h, SectionLock* lock) {
    if (R.host_of_comp_.count(&c) != 0) return;
    R.host_of_comp_[&c] = h.tid();
    h.hosted_.push_back(&c);
    c.shared_lock_ = lock;
  }

  /// The buffer a push along `e` reaches through filters and push-mode
  /// coroutines, or nullptr (a sink, a tee, a pull-mode member).
  Buffer* buffer_downstream(const Edge* e) const {
    for (; e != nullptr; e = pipe.edge_from(*e->to, 0)) {
      switch (e->to->style()) {
        case Style::kBuffer:
          return static_cast<Buffer*>(e->to);
        case Style::kFunction:
        case Style::kProducer:
        case Style::kActive:
          continue;
        default:
          return nullptr;
      }
    }
    return nullptr;
  }

  /// The shared region behind a merge or balancing tee, created empty; the
  /// caller builds its link.
  Realization::SharedTail* new_tail(Component& tee, HostContext& h) {
    R.tails_.push_back(std::make_unique<Realization::SharedTail>());
    Realization::SharedTail* tail = R.tails_.back().get();
    tails_by_tee_[&tee] = tail;
    reg(tee, h, &tail->lock);
    return tail;
  }

  // ---- push side ------------------------------------------------------------

  PushSpanFn build_push(const Edge* e, HostContext& h, SectionLock* lock) {
    Component& c = *e->to;
    Realization* Rp = &R;
    switch (c.style()) {
      case Style::kPassiveSink: {
        auto* s = static_cast<PassiveSink*>(&c);
        reg(c, h, lock);
        return [s](ItemSpan xs) { s->consume_span(xs); };
      }
      case Style::kBuffer: {
        auto* b = static_cast<Buffer*>(&c);
        reg(c, h, lock);
        b->bind_producer(*R.rt_);
        return [b, Rp](ItemSpan xs) { b->put_span(xs, Rp->current_host()); };
      }
      case Style::kFunction: {
        auto* f = static_cast<FunctionComponent*>(&c);
        reg(c, h, lock);
        PushSpanFn inner = build_push(pipe.edge_from(c, 0), h, lock);
        // The paper's trivial glue: void push(item x){next->push(fct(x));}
        // A lone EOS passes straight on; no filter ever sees one.
        return [f, inner](ItemSpan xs) {
          if (!lone_eos(xs)) f->convert_span(xs);
          inner(xs);
        };
      }
      case Style::kConsumer: {
        // Push-mode consumer: called directly (Figure 9 a, c, g, h), one
        // item at a time; its outputs leave as one-item spans.
        auto* k = static_cast<Consumer*>(&c);
        reg(c, h, lock);
        k->push_link_ = one_item(build_push(pipe.edge_from(c, 0), h, lock));
        return [k](ItemSpan xs) {
          for (Item& x : xs) {
            if (x.is_eos()) {
              k->flush();  // may emit leftovers through push_link_
              k->push_link_(std::move(x));
            } else if (!x.is_nil()) {
              k->push(std::move(x));
            }
          }
        };
      }
      case Style::kProducer:
      case Style::kActive:
        // Producer used in push mode, or an active object: coroutine.
        return make_push_coroutine(c);
      case Style::kTee:
        return build_push_tee(e, h, lock);
      default:
        assert(false && "planner admitted an illegal push target");
        return {};
    }
  }

  PushSpanFn build_push_tee(const Edge* e, HostContext& h, SectionLock* lock) {
    Component& c = *e->to;
    Realization* Rp = &R;
    if (dynamic_cast<MulticastTee*>(&c) != nullptr ||
        dynamic_cast<RoutingSwitch*>(&c) != nullptr) {
      reg(c, h, lock);
      std::vector<PushFn> outs;
      outs.reserve(static_cast<std::size_t>(c.out_port_count()));
      for (int port = 0; port < c.out_port_count(); ++port) {
        outs.push_back(one_item(build_push(pipe.edge_from(c, port), h, lock)));
      }
      // Both fan out item by item, so the branches interleave per item.
      if (auto* sw = dynamic_cast<RoutingSwitch*>(&c)) {
        return [sw, outs](ItemSpan xs) {
          for (Item& x : xs) {
            if (!x.is_data()) {
              for (const PushFn& out : outs) out(x);  // EOS/nil fan out
              continue;
            }
            const int i = sw->select(x);
            if (i < 0 || i >= static_cast<int>(outs.size())) {
              ++sw->dropped_;
              x = Item();  // a dropped item dies at its drop
              continue;
            }
            outs[static_cast<std::size_t>(i)](std::move(x));
          }
        };
      }
      return [outs](ItemSpan xs) {
        for (Item& x : xs) {
          // Copies share the payload; the last branch takes the original.
          for (std::size_t i = 0; i < outs.size(); ++i) {
            outs[i](i + 1 < outs.size() ? Item(x) : std::move(x));
          }
        }
      };
    }
    if (auto* mt = dynamic_cast<MergeTee*>(&c)) {
      // The tail beyond the merge is shared between all pushing sections;
      // build it once and serialize entry.
      Realization::SharedTail* tail = tails_by_tee_[&c];
      if (tail == nullptr) {
        tail = new_tail(c, h);
        tail->push = build_push(pipe.edge_from(c, 0), h, &tail->lock);
      }
      const int ins = mt->in_port_count();
      return [mt, tail, Rp, ins](ItemSpan xs) {
        HostContext& host = Rp->current_host();
        tail->lock.acquire(host);
        try {
          // Forward EOS only once every input branch has ended.
          if (!lone_eos(xs) || ++mt->eos_seen_ >= ins) tail->push(xs);
        } catch (...) {
          tail->lock.release(host);
          throw;
        }
        tail->lock.release(host);
      };
    }
    assert(false && "planner admitted an illegal tee in push mode");
    return {};
  }

  // ---- pull side -------------------------------------------------------------

  PullSpanFn build_pull(const Edge* e, HostContext& h, SectionLock* lock) {
    Component& c = *e->from;
    Realization* Rp = &R;
    switch (c.style()) {
      case Style::kPassiveSource: {
        auto* s = static_cast<PassiveSource*>(&c);
        reg(c, h, lock);
        auto done = std::make_shared<bool>(false);
        return [s, done](ItemSpan out) -> std::size_t {
          if (*done) throw EndOfStream{};
          const std::size_t n = s->generate_span(out);
          if (n == 0 || lone_eos(out.first(n))) {
            *done = true;
            throw EndOfStream{};
          }
          return n;
        };
      }
      case Style::kBuffer: {
        auto* b = static_cast<Buffer*>(&c);
        reg(c, h, lock);
        b->bind_consumer(*R.rt_);
        return [b, Rp](ItemSpan out) -> std::size_t {
          const std::size_t n = b->take_span(out, Rp->current_host());
          if (lone_eos(out.first(n))) throw EndOfStream{};
          return n;  // data, or one nil (empty buffer, nil policy)
        };
      }
      case Style::kFunction: {
        auto* f = static_cast<FunctionComponent*>(&c);
        reg(c, h, lock);
        PullSpanFn inner = build_pull(pipe.edge_into(c, 0), h, lock);
        // item pull() { return fct(prev->pull()); }
        return [f, inner](ItemSpan out) -> std::size_t {
          const std::size_t n = inner(out);
          f->convert_span(out.first(n));
          return n;
        };
      }
      case Style::kProducer: {
        // Pull-mode producer: called directly (Figure 9 a, e, h); it
        // answers a pull with one item.
        auto* p = static_cast<Producer*>(&c);
        reg(c, h, lock);
        p->pull_link_ = one_item(build_pull(pipe.edge_into(c, 0), h, lock));
        return [p](ItemSpan out) -> std::size_t {
          out[0] = p->pull();
          return 1;
        };
      }
      case Style::kConsumer:
      case Style::kActive:
        // Consumer used in pull mode, or an active object: coroutine.
        return make_pull_coroutine(c);
      case Style::kTee:
        return build_pull_tee(e, h, lock);
      default:
        assert(false && "planner admitted an illegal pull source");
        return {};
    }
  }

  PullSpanFn build_pull_tee(const Edge* e, HostContext& h, SectionLock* lock) {
    Component& c = *e->from;
    Realization* Rp = &R;
    if (auto* ct = dynamic_cast<CombineTee*>(&c)) {
      reg(c, h, lock);
      std::vector<PullFn> ins;
      ins.reserve(static_cast<std::size_t>(ct->in_port_count()));
      for (int port = 0; port < ct->in_port_count(); ++port) {
        ins.push_back(one_item(build_pull(pipe.edge_into(c, port), h, lock)));
      }
      // One pull combines one item from every input.
      return [ct, ins](ItemSpan out) -> std::size_t {
        std::vector<Item> xs;
        xs.reserve(ins.size());
        for (const PullFn& in : ins) {
          Item x = in();  // EndOfStream from any input ends the combine
          if (x.is_nil()) {
            out[0] = Item::nil();
            return 1;
          }
          xs.push_back(std::move(x));
        }
        out[0] = ct->combine(std::move(xs));
        return 1;
      };
    }
    if (dynamic_cast<BalancingSwitch*>(&c) != nullptr) {
      // The head upstream of the switch is shared between all pulling
      // sections; build it once and serialize entry.
      Realization::SharedTail* tail = tails_by_tee_[&c];
      if (tail == nullptr) {
        tail = new_tail(c, h);
        tail->pull = build_pull(pipe.edge_into(c, 0), h, &tail->lock);
      }
      return [tail, Rp](ItemSpan out) -> std::size_t {
        HostContext& host = Rp->current_host();
        tail->lock.acquire(host);
        try {
          const std::size_t n = tail->pull(out);
          tail->lock.release(host);
          return n;
        } catch (...) {
          tail->lock.release(host);
          throw;
        }
      };
    }
    assert(false && "planner admitted an illegal tee in pull mode");
    return {};
  }

  // ---- coroutine creation (the Figure 7 wrappers) ------------------------------

  struct SpawnedCoroutine {
    CoroutineRec* rec;
    HostContext* host;
  };

  SpawnedCoroutine spawn_coroutine(Component& c) {
    auto owned = std::make_unique<CoroutineRec>();
    CoroutineRec* rec = owned.get();
    rec->comp = &c;
    R.coroutines_.push_back(std::move(owned));
    Realization* Rp = &R;
    const rt::ThreadId tid = R.rt_->spawn(
        c.name() + ".co", rt::kPriorityData,
        [Rp, rec](rt::Runtime&, rt::Message m) {
          return Rp->coroutine_code(Rp->current_host(), *rec, std::move(m));
        });
    rec->tid = tid;
    HostContext& ch = R.new_host(tid);
    ch.driver_ = current_driver_;
    // The coroutine component's control events are dispatched on its own
    // thread, serialized with its data processing by construction — no lock
    // needed even inside a shared region.
    reg(c, ch, nullptr);
    return SpawnedCoroutine{rec, &ch};
  }

  /// Producer or active object used in push mode: each input span arrives
  /// in one hand-off and is taken item by item; the outputs are gathered
  /// and continue down the chain on the coroutine's thread as one span.
  PushSpanFn make_push_coroutine(Component& c) {
    SpawnedCoroutine sc = spawn_coroutine(c);
    CoroutineRec* rec = sc.rec;
    Realization* Rp = &R;
    rec->downstream = build_push(pipe.edge_from(c, 0), *sc.host, nullptr);
    PullFn input = [Rp, rec]() { return co_get_input(*Rp, *rec); };
    PushFn output = [rec](Item y) { co_emit(*rec, std::move(y)); };

    if (auto* a = dynamic_cast<ActiveComponent*>(&c)) {
      a->pull_link_ = input;
      a->push_link_ = output;
      rec->main = [Rp, rec, a]() {
        try {
          a->run();
        } catch (EndOfStream&) {
          a->flush();
          co_emit(*rec, Item::eos());
        } catch (StopFlow&) {
          // section stopped while blocked in a buffer: pause cleanly
        }
        co_final_done(*Rp, *rec);
      };
    } else {
      auto* p = static_cast<Producer*>(&c);
      p->pull_link_ = input;
      // Figure 7a: while (running) { x = this->pull(); next->push(x); }
      rec->main = [Rp, rec, p]() {
        try {
          for (;;) co_emit(*rec, p->pull());
        } catch (EndOfStream&) {
          p->flush();
          co_emit(*rec, Item::eos());
        } catch (StopFlow&) {
        }
        co_final_done(*Rp, *rec);
      };
    }

    auto done = std::make_shared<bool>(false);
    return [Rp, rec, done](ItemSpan xs) {
      if (*done) return;
      channel_push(*Rp, *rec, xs);
      if (lone_eos(xs)) *done = true;
    };
  }

  /// Consumer or active object used in pull mode: each pull hands over a
  /// room, the coroutine fills it from one upstream take on its own thread
  /// and hands it back in one hand-off.
  PullSpanFn make_pull_coroutine(Component& c) {
    SpawnedCoroutine sc = spawn_coroutine(c);
    CoroutineRec* rec = sc.rec;
    Realization* Rp = &R;
    rec->upstream = build_pull(pipe.edge_into(c, 0), *sc.host, nullptr);
    PushFn output = [Rp, rec](Item y) { co_deliver(*Rp, *rec, std::move(y)); };

    if (auto* a = dynamic_cast<ActiveComponent*>(&c)) {
      a->pull_link_ = [Rp, rec]() { return co_pull_input(*Rp, *rec); };
      a->push_link_ = output;
      rec->main = [Rp, rec, a]() {
        try {
          a->run();
          co_leave(*Rp, *rec);  // run() returned (STOP)
        } catch (EndOfStream&) {
          a->flush();
          rec->finished = true;
          co_deliver(*Rp, *rec, Item::eos(), true);
        } catch (StopFlow&) {
          co_leave(*Rp, *rec);
        }
      };
    } else {
      auto* k = static_cast<Consumer*>(&c);
      k->push_link_ = output;
      // Figure 7b: while (running) { x = prev->pull(); this->push(x); }
      rec->main = [Rp, rec, k]() {
        try {
          for (;;) {
            // No upstream pull before demand.
            Item x = co_pull_input(*Rp, *rec);
            if (x.is_nil()) {
              co_deliver(*Rp, *rec, std::move(x));
              continue;
            }
            k->push(std::move(x));
          }
        } catch (EndOfStream&) {
          k->flush();  // may deliver leftovers first
          rec->finished = true;
          co_deliver(*Rp, *rec, Item::eos(), true);
        } catch (StopFlow&) {
          co_leave(*Rp, *rec);
        }
      };
    }

    auto done = std::make_shared<bool>(false);
    return [Rp, rec, done](ItemSpan out) -> std::size_t {
      if (*done) throw EndOfStream{};
      const std::size_t n = channel_pull(*Rp, *rec, out);
      if (lone_eos(out.first(n))) {
        *done = true;
        throw EndOfStream{};
      }
      return n;
    };
  }

  Realization& R;
  const Pipeline& pipe;
  Driver* current_driver_ = nullptr;
  std::map<const Component*, Realization::SharedTail*> tails_by_tee_;
};

// ============================ Realization ===================================

Realization::Realization(rt::Runtime& rt, const Pipeline& p)
    : rt_(&rt), pipe_(&p), plan_(::infopipe::plan(p)) {
  for (Component* c : p.components()) {
    if (c->realization_ != nullptr) {
      throw CompositionError(c->name() +
                             " is already part of a realized pipeline");
    }
  }
  for (Component* c : p.components()) {
    c->realization_ = this;
    c->running_ = false;
    c->shared_lock_ = nullptr;
    c->upstream_neighbor_.assign(
        static_cast<std::size_t>(c->in_port_count()), nullptr);
    if (auto* mt = dynamic_cast<MergeTee*>(c)) mt->eos_seen_ = 0;
  }
  for (const Edge& e : p.edges()) {
    e.to->upstream_neighbor_[static_cast<std::size_t>(e.in_port)] = e.from;
  }
  Wiring(*this).build();
  for (Component* c : p.components()) c->on_realized();

  // Hot-path metric handles: resolved once here, incremented without any
  // lookup in the glue. The collector republishes per-driver/per-buffer
  // stats into every registry snapshot and must be removed before `this`
  // dies (see the destructor).
  obs::MetricsRegistry& mr = rt.metrics();
  obs_.handoffs = &mr.counter("core.handoffs");
  obs_.handoff_ns = &mr.histogram("core.handoff_ns");
  obs_.control_dispatched = &mr.counter("core.control_dispatched");
  obs_.control_while_blocked = &mr.counter("core.control_while_blocked");
  obs_.driver_cycles = &mr.counter("core.driver_cycles");
  obs_.batch_items = &mr.histogram("core.batch_items");
  obs_collector_ = mr.add_collector(
      [this](obs::MetricsSnapshot& s) { publish(stats_snapshot(), s); });
}

namespace {
const Pipeline& deref_pipeline(const std::shared_ptr<const Pipeline>& p) {
  if (p == nullptr) {
    throw CompositionError("Realization: null pipeline");
  }
  return *p;
}
}  // namespace

Realization::Realization(rt::Runtime& rt, std::shared_ptr<const Pipeline> p)
    : Realization(rt, deref_pipeline(p)) {
  pipe_owner_ = std::move(p);
}

Realization::~Realization() {
  rt_->metrics().remove_collector(obs_collector_);
  for (rt::ThreadId t : all_threads_) {
    if (rt_->alive(t)) rt_->kill(t);
  }
  unbind_components();
}

void Realization::unbind_components() {
  for (Component* c : pipe_->components()) {
    c->realization_ = nullptr;
    c->running_ = false;
    c->shared_lock_ = nullptr;
    c->upstream_neighbor_.clear();
    if (auto* a = dynamic_cast<ActiveComponent*>(c)) {
      a->pull_link_ = {};
      a->push_link_ = {};
    } else if (auto* k = dynamic_cast<Consumer*>(c)) {
      k->push_link_ = {};
    } else if (auto* pr = dynamic_cast<Producer*>(c)) {
      pr->pull_link_ = {};
    } else if (auto* d = dynamic_cast<Driver*>(c)) {
      d->pull_link_ = {};
      d->push_link_ = {};
    }
  }
}

HostContext& Realization::new_host(rt::ThreadId tid) {
  hosts_.push_back(std::unique_ptr<HostContext>(new HostContext(*this, tid)));
  HostContext* h = hosts_.back().get();
  host_by_tid_[tid] = h;
  all_threads_.push_back(tid);
  return *h;
}

HostContext& Realization::current_host() {
  auto it = host_by_tid_.find(rt_->current());
  if (it == host_by_tid_.end()) {
    throw rt::RuntimeError(
        "middleware operation outside a pipeline thread (current thread is "
        "not hosted by this realization)");
  }
  return *it->second;
}

rt::ThreadId Realization::host_thread(const Component& c) const {
  auto it = host_of_comp_.find(&c);
  return it == host_of_comp_.end() ? rt::kNoThread : it->second;
}

Component* Realization::find_component(std::string_view name) const {
  for (Component* c : pipe_->components()) {
    if (c->name() == name) return c;
  }
  return nullptr;
}

PlanInfo Realization::plan_info() const {
  return plan_info_of(*pipe_, plan_, all_threads_.size());
}

StatsSnapshot Realization::stats_snapshot() {
  StatsSnapshot snap;
  snap.when = rt_->now();
  for (Component* c : pipe_->components()) {
    if (auto* d = dynamic_cast<Driver*>(c)) {
      snap.drivers.push_back(DriverStats{d->name(), d->items_pumped(),
                                         d->deadline_misses(), d->running()});
    } else if (auto* b = dynamic_cast<Buffer*>(c)) {
      snap.buffers.push_back(b->flow_stats());
    }
  }
  return snap;
}

int Realization::running_drivers() const {
  int n = 0;
  for (const auto& sec : plan_.sections) {
    if (sec.driver->running_) ++n;
  }
  return n;
}

void Realization::post_event(const Event& e) {
  if (listener_) listener_(e);
  for (const auto& host : hosts_) {
    rt::Message m{detail::kMsgControl, rt::MsgClass::kControl};
    m.constraint = rt::Constraint{rt::kPriorityControl, rt::kTimeNever};
    m.payload = ControlDispatch{nullptr, e};
    rt_->send(host->tid(), std::move(m));
  }
}

void Realization::post_event_external(const Event& e) {
  // hosts_ and each host's tid are immutable after construction, so reading
  // them from a foreign kernel thread is safe; delivery goes through the
  // runtime's one thread-safe entry point.
  for (const auto& host : hosts_) {
    rt::Message m{detail::kMsgControl, rt::MsgClass::kControl};
    m.constraint = rt::Constraint{rt::kPriorityControl, rt::kTimeNever};
    m.payload = ControlDispatch{nullptr, e};
    rt_->post_external(host->tid(), std::move(m));
  }
}

void Realization::post_event_to(Component& c, const Event& e) {
  post_event_to_after(c, e, 0);
}

void Realization::post_event_to_external(Component& c, const Event& e) {
  // host_of_comp_ is immutable after construction, so the lookup is safe
  // from a foreign kernel thread; delivery goes through the runtime's one
  // thread-safe entry point and lands at the host's dispatch points — the
  // targeted twin of post_event_external.
  auto it = host_of_comp_.find(&c);
  if (it == host_of_comp_.end()) {
    throw CompositionError(c.name() + " is not hosted by this realization");
  }
  rt::Message m{detail::kMsgControl, rt::MsgClass::kControl};
  m.constraint = rt::Constraint{rt::kPriorityControl, rt::kTimeNever};
  m.payload = ControlDispatch{&c, e};
  rt_->post_external(it->second, std::move(m));
}

void Realization::post_event_to_after(Component& c, const Event& e,
                                      rt::Time delay) {
  auto it = host_of_comp_.find(&c);
  if (it == host_of_comp_.end()) {
    throw CompositionError(c.name() + " is not hosted by this realization");
  }
  rt::Message m{detail::kMsgControl, rt::MsgClass::kControl};
  m.constraint = rt::Constraint{rt::kPriorityControl, rt::kTimeNever};
  m.payload = ControlDispatch{&c, e};
  if (delay > 0) {
    rt_->send_at(rt_->now() + delay, it->second, std::move(m));
  } else {
    rt_->send(it->second, std::move(m));
  }
}

// ---- thread code functions ----------------------------------------------------

rt::CodeResult Realization::driver_code(HostContext& h, Driver& d,
                                        rt::Message m) {
  if (m.cls == rt::MsgClass::kControl) {
    try {
      h.dispatch(std::move(m));
      if (h.terminate_requested()) return rt::CodeResult::kTerminate;
      if (d.running_) run_driver(h, d);
      if (h.terminate_requested()) return rt::CodeResult::kTerminate;
    } catch (ShutdownSignal&) {
      return rt::CodeResult::kTerminate;
    }
  }
  // Stale data/timer messages (late ticks) are dropped.
  return rt::CodeResult::kContinue;
}

void Realization::run_driver(HostContext& h, Driver& d) {
  // §3.1: pumps with a declared cost estimate reserve CPU at setup; an
  // over-committed schedule is refused before any data moves.
  bool reserved = false;
  if (d.cost_estimate() > 0) {
    if (const auto period = d.nominal_period()) {
      if (!rt_->reservations().admit(
              h.tid(), rt::Reservation{*period, d.cost_estimate()})) {
        d.running_ = false;
        post_event(Event{kEventReservationDenied, d.name()});
        return;
      }
      reserved = true;
    }
  }
  struct ReleaseGuard {
    rt::Runtime* rt;
    rt::ThreadId tid;
    bool active;
    ~ReleaseGuard() {
      if (active) rt->reservations().release(tid);
    }
  } guard{rt_, h.tid(), reserved};

  d.prepare(rt_->now());
  while (d.running_) {
    const rt::Time now = rt_->now();
    const rt::Time fire = d.next_fire(now);
    if (fire < now) ++d.deadline_misses_;  // running behind schedule
    // The pump assigns the scheduling constraint; every message sent while
    // processing this cycle inherits it, governing the whole coroutine set.
    rt_->set_active_constraint(rt::Constraint{d.priority(), fire});
    if (fire > now) {
      const std::uint64_t gen = ++h.tick_gen_;
      rt::Message tick{detail::kMsgTick, rt::MsgClass::kTimer};
      tick.payload = gen;
      rt_->send_at(fire, h.tid(), std::move(tick));
      for (;;) {
        rt::Message tm = h.wait([](const rt::Message& x) {
          return x.type == detail::kMsgTick;
        });
        const auto* g = tm.get<std::uint64_t>();
        if (g != nullptr && *g == gen) break;  // stale ticks are discarded
      }
      if (!d.running_) break;  // STOP arrived during the wait
    }
    obs_.driver_cycles->inc();
    try {
      d.cycle();
    } catch (EndOfStream&) {
      try {
        if (d.push_link_) d.push_next(Item::eos());
      } catch (StopFlow&) {
      }
      if (auto* s = dynamic_cast<ActiveSink*>(&d)) s->on_eos();
      d.running_ = false;
      rt_->set_active_constraint(std::nullopt);
      post_event(Event{kEventEndOfStream, d.name()});
      return;
    } catch (StopFlow&) {
      break;
    }
    // Control events that arrived during the cycle are delivered now, before
    // the next data processing step (§3.2).
    h.poll_control();
  }
  rt_->set_active_constraint(std::nullopt);
}

rt::CodeResult Realization::coroutine_code(HostContext& h, CoroutineRec& rec,
                                           rt::Message m) {
  if (m.cls == rt::MsgClass::kControl) {
    try {
      h.dispatch(std::move(m));
    } catch (ShutdownSignal&) {
      return rt::CodeResult::kTerminate;
    }
    return h.terminate_requested() ? rt::CodeResult::kTerminate
                                   : rt::CodeResult::kContinue;
  }
  if (m.type != detail::kMsgCoItem && m.type != detail::kMsgCoPull) {
    return rt::CodeResult::kContinue;  // not an activation
  }
  try {
    // After end of stream, answer instead of re-running the main function:
    // a pull gets EOS, a push is released.
    if (!rec.finished) {
      rec.running = true;
      rec.main();
    } else if (rec.want) {
      co_deliver(*this, rec, Item::eos(), true);
    } else {
      co_final_done(*this, rec);
    }
  } catch (ShutdownSignal&) {
    return rt::CodeResult::kTerminate;
  } catch (...) {
    rec.running = false;  // a later request starts main again
    // A fault ends the burst: the outputs gathered before it still leave.
    if (rec.downstream) co_flush(rec);
    throw;
  }
  rec.running = false;
  return rt::CodeResult::kContinue;
}

}  // namespace infopipe
