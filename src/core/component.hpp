// The Infopipe component model (§2.1, §3.3).
//
// A component developer indicates the chosen activity style by inheriting
// from the appropriate base class and overriding
//   * run()      for an active object       (ActiveComponent),
//   * push()     for a passive consumer     (Consumer),
//   * pull()     for a passive producer     (Producer),
//   * convert()  for a function-style one-to-one component (FunctionComponent),
// plus handle_event() for control events. Independently of how a component
// is written, the middleware decides whether it can be called directly or
// needs a coroutine in the pipeline it ends up in (planner.hpp), and
// generates the glue (realization.cpp). Component code never touches
// threads, locks or condition variables — that is the thread transparency
// the paper is about.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/item.hpp"
#include "core/polarity.hpp"
#include "core/typespec.hpp"
#include "rt/types.hpp"

namespace infopipe {

class Realization;

/// Activity/role classification used by the composition planner.
enum class Style {
  kActive,         ///< active object with a main function (needs a coroutine)
  kConsumer,       ///< passive, implements push()
  kProducer,       ///< passive, implements pull()
  kFunction,       ///< passive, one-to-one convert(); direct in either mode
  kBuffer,         ///< passive at both ends; section boundary
  kPump,           ///< active at both ends; drives a section
  kActiveSource,   ///< source with its own activity (drives a section)
  kPassiveSource,  ///< source that is pulled; section boundary
  kActiveSink,     ///< sink with its own activity, e.g. an audio device
  kPassiveSink,    ///< sink that is pushed; section boundary
  kTee,            ///< multi-port component; subclass fixes port polarities
};

[[nodiscard]] std::string to_string(Style s);

/// Installed by the middleware: moves an item downstream / fetches one from
/// upstream. Pull links throw EndOfStream when the flow has ended.
using PushFn = std::function<void(Item)>;
using PullFn = std::function<Item()>;

/// Batched twins of the links above (PR 6). A push span moves a burst of
/// items downstream; the callee consumes (moves out of) every element. A
/// pull span fills `out` and returns how many slots it used: either n >= 1
/// data items, or exactly one nil at out[0] when the upstream is empty
/// under the nil policy. End-of-stream is reported by throwing EndOfStream,
/// exactly like PullFn — a span never mixes data with specials, so batch
/// boundaries cannot hide an EOS mid-burst. The Wiring builds span links
/// only for chains every member of which speaks spans natively (buffers,
/// functions, passive endpoints); everywhere else the per-item links remain
/// the only path and pumps fall back transparently.
using PushSpanFn = std::function<void(ItemSpan)>;
using PullSpanFn = std::function<std::size_t(ItemSpan)>;

/// Thrown when component code uses a link the planner has not wired (e.g.
/// calling push_next() on the last component of a pipeline).
class NotWired : public std::logic_error {
 public:
  explicit NotWired(const std::string& what) : std::logic_error(what) {}
};

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual Style style() const = 0;

  // -- ports -----------------------------------------------------------------
  [[nodiscard]] virtual int in_port_count() const;
  [[nodiscard]] virtual int out_port_count() const;
  /// Declared polarity. Mid-pipeline styles are polymorphic (α→α); drivers,
  /// buffers and passive endpoints are fixed. Derived from style() by
  /// default; tees override per port.
  [[nodiscard]] virtual Polarity in_polarity(int port) const;
  [[nodiscard]] virtual Polarity out_polarity(int port) const;

  // -- Typespec protocol (§2.3) -----------------------------------------------
  /// Constraints this component places on the flow arriving at `port`
  /// (formats it can read, QoS it can handle, …). Empty = accepts anything.
  [[nodiscard]] virtual Typespec input_requirement(int port) const;
  /// Properties this component asserts about the flow leaving `port`, used
  /// for sources and for components that add/update properties.
  [[nodiscard]] virtual Typespec output_offer(int port) const;
  /// Transformation of the incoming flow description into the outgoing one
  /// (a decoder turns "mpeg" into "raw-video", a netpipe updates the
  /// location property, …). Default: identity overlaid with output_offer().
  [[nodiscard]] virtual Typespec transform_downstream(const Typespec& in,
                                                      int in_port,
                                                      int out_port) const;

  /// Control-event capabilities (§2.3: "The capability of components to
  /// send or react to these control events is included in the Typespec to
  /// ensure that the resulting pipeline is operational").
  /// Symbolic names of control events this component emits…
  [[nodiscard]] virtual StringSet control_emits() const { return {}; }
  /// …and of control events it NEEDS some other component to emit. The
  /// planner rejects pipelines where a requirement has no emitter.
  [[nodiscard]] virtual StringSet control_requires() const { return {}; }

  // -- control events (§2.2) ----------------------------------------------------
  /// Called by the middleware, never concurrently with this component's data
  /// processing. Delivered even while the hosting thread is blocked in a
  /// push or pull.
  virtual void handle_event(const Event& e);

  /// Called by the middleware when the upstream flow ends, before the
  /// end-of-stream marker moves on. Components with inter-item state (e.g. a
  /// defragmenter holding an unpaired fragment) may emit leftovers here
  /// through their normal output path where the style allows it.
  virtual void flush() {}

  /// Called once this component's pipeline has been realized (threads exist,
  /// host_thread() is valid) and before any data flows. Components that need
  /// to register with external services (e.g. a netpipe receiver attaching
  /// to its transport) hook in here.
  virtual void on_realized() {}

  /// May the platform move this component's section to another shard while
  /// the flow runs? Components bound to external OS resources (netpipe
  /// transports, audio devices, anything built on an rt::IoBridge) return
  /// false; partition() then pins the whole hosting section so the
  /// rebalancer never tries to re-instantiate it elsewhere.
  [[nodiscard]] virtual bool migratable() const { return true; }

  /// True between kEventStart and kEventStop. Active components' main loops
  /// are conventionally `while (running()) { ... }` as in the paper's
  /// figures; also useful for application-level introspection.
  [[nodiscard]] bool running() const noexcept { return running_; }

  // -- helpers available to component code once realized ------------------------
 protected:
  /// Sends a control event to the adjacent component connected to the given
  /// port (local control interaction, e.g. display → resizer window size).
  void control_upstream(const Event& e, int in_port = 0);
  void control_downstream(const Event& e, int out_port = 0);
  /// Broadcasts a control event to every component of the pipeline through
  /// the platform's event service.
  void broadcast(const Event& e);

  /// Pipeline time (virtual or real depending on the runtime's clock).
  [[nodiscard]] rt::Time pipeline_now() const;

  /// The realization this component currently belongs to; nullptr while
  /// unrealized. Components like buffers use it to reach the runtime from
  /// event handlers.
  [[nodiscard]] Realization* realization() const noexcept {
    return realization_;
  }

 private:
  friend class Realization;
  friend class HostContext;
  friend class Wiring;
  friend class SectionLock;

  std::string name_;
  bool running_ = false;
  /// Set while the component is realized in a pipeline.
  Realization* realization_ = nullptr;
  /// Serializes access when the component sits in a shared (merge/balance)
  /// region; nullptr otherwise.
  class SectionLock* shared_lock_ = nullptr;
  /// Adjacent components, filled in at realization (for local control).
  std::vector<Component*> upstream_neighbor_;
  std::vector<Component*> downstream_neighbor_;
};

// ---- The four mid-pipeline activity styles (§3.3) -----------------------------

/// Active object: a main function with its own (co)thread. "The programmer
/// can freely mix statements for sending and receiving data items as is most
/// convenient" — the paper's Figure 5/6 style.
class ActiveComponent : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kActive; }

 protected:
  /// The component's main function. Runs on a coroutine; pull_prev() and
  /// push_next() suspend it transparently. Ends by returning (after STOP) or
  /// by letting EndOfStream propagate out of a pull_prev() call.
  virtual void run() = 0;

  [[nodiscard]] Item pull_prev();
  void push_next(Item x);

 private:
  friend class Wiring;
  friend class Realization;
  PullFn pull_link_;
  PushFn push_link_;
};

/// Passive consumer: implements push(); may emit any number of items per
/// input via push_next() (Figure 4a).
class Consumer : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kConsumer; }

 protected:
  friend class Wiring;
  virtual void push(Item x) = 0;
  void push_next(Item x);

 private:
  friend class Realization;
  PushFn push_link_;
};

/// Passive producer: implements pull(); may consume any number of upstream
/// items per output via pull_prev() (Figure 4b).
class Producer : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kProducer; }

 protected:
  friend class Wiring;
  [[nodiscard]] virtual Item pull() = 0;
  [[nodiscard]] Item pull_prev();

 private:
  friend class Realization;
  PullFn pull_link_;
};

/// Function-style component: exactly one output per input. Usable directly
/// in push as well as pull mode; the glue is trivial (§3.3):
///   void push(item x) { next->push(fct(x)); }
///   item pull()       { return fct(prev->pull()); }
class FunctionComponent : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kFunction; }

 protected:
  friend class Wiring;
  [[nodiscard]] virtual Item convert(Item x) = 0;

  /// Batched path: transform every data item of `xs` in place (1:1,
  /// order-preserving); nils pass through untouched, exactly as the
  /// per-item glue leaves them. The default is the automatic per-item
  /// adapter — existing filters work unchanged under batching. Override
  /// (or derive from BatchFilter) to amortize per-item overhead across the
  /// burst.
  virtual void convert_span(ItemSpan xs) {
    for (Item& x : xs) {
      if (x.is_data()) x = convert(std::move(x));
    }
  }
};

/// A function-style component whose NATIVE interface is the span: derive
/// from this when the whole point of the component is burst processing
/// (vectorized transforms, amortized encode scratch). The per-item
/// convert() is the automatic adapter — a BatchFilter dropped into a
/// non-batched chain (max_batch = 1) behaves identically, one-item spans
/// included.
class BatchFilter : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

 protected:
  friend class Wiring;
  void convert_span(ItemSpan xs) override = 0;

  [[nodiscard]] Item convert(Item x) final {
    convert_span(ItemSpan(&x, 1));
    return x;
  }
};

// ---- Passive endpoints ----------------------------------------------------------

/// A source that is pulled by the downstream section's driver. Return
/// Item::eos() once exhausted (the middleware turns that into end-of-stream
/// propagation).
class PassiveSource : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kPassiveSource; }
  [[nodiscard]] int in_port_count() const override { return 0; }

 protected:
  friend class Wiring;
  [[nodiscard]] virtual Item generate() = 0;

  /// Batched path: fill `out` with data items and return how many, or
  /// report "no data" with a single special at out[0] (nil under a nil
  /// policy) or a return of 0 / a single EOS (exhausted — the glue turns
  /// either into EndOfStream). The default adapter loops generate() until
  /// the burst is full or a special appears, so every source batches
  /// without an override; a special hit mid-burst is stashed and returned
  /// as its own one-item burst on the next call (a span never mixes data
  /// and specials). Sources that can produce runs cheaper than a virtual
  /// call per item (CountingSource, ChannelSource) override this.
  virtual std::size_t generate_span(ItemSpan out) {
    if (has_pending_) {
      has_pending_ = false;
      out[0] = std::move(pending_);
      return 1;
    }
    std::size_t n = 0;
    while (n < out.size()) {
      Item x = generate();
      if (!x.is_data()) {
        if (n == 0) {
          out[0] = std::move(x);
          return 1;
        }
        pending_ = std::move(x);
        has_pending_ = true;
        break;
      }
      out[n++] = std::move(x);
    }
    return n;
  }

 private:
  /// Special (nil/EOS) produced by generate() mid-burst, held for the next
  /// generate_span call. Only the batched path touches it: the per-item
  /// glue calls generate() directly.
  Item pending_;
  bool has_pending_ = false;
};

/// A sink that is pushed into by the upstream section's driver.
class PassiveSink : public Component {
 public:
  using Component::Component;
  [[nodiscard]] Style style() const override { return Style::kPassiveSink; }
  [[nodiscard]] int out_port_count() const override { return 0; }

 protected:
  friend class Wiring;
  virtual void consume(Item x) = 0;
  /// Notified when end-of-stream reaches this sink.
  virtual void on_eos() {}

  /// Batched path: consume a burst. The default per-item adapter mirrors
  /// the per-item glue exactly — nils are skipped, EOS routes to on_eos().
  /// Sinks with a bulk fast path (ChannelSink) override this.
  virtual void consume_span(ItemSpan xs) {
    for (Item& x : xs) {
      if (x.is_eos()) {
        on_eos();
        continue;
      }
      if (x.is_nil()) continue;
      consume(std::move(x));
    }
  }
};

}  // namespace infopipe
