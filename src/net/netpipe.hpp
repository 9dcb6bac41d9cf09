// Netpipes (§2.4): transport protocols encapsulated as Infopipe components.
//
// "These netpipes support plain data flows and may manage low-level
// properties such as bandwidth and latency. Marshalling filters on either
// side translate the raw data flow to and from a higher-level information
// flow. These components also encapsulate the QoS mapping of netpipe
// properties and information flow properties."
//
// A netpipe appears in a pipeline as a pair of components around a SimLink:
//
//   ... >> marshal >> net.sender() | ... | net.receiver() >> unmarshal >> ...
//
// The sender end is a passive sink for the producer-side section; the
// receiver end is an active source driving the consumer-side section (its
// activity comes from packet arrivals, like a protocol stack's receive
// path). Both update the flow's location property, so type checking can see
// where a flow lives (§2.4).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/pump.hpp"
#include "core/realization.hpp"
#include "net/transport.hpp"

namespace infopipe::net {

/// Producer-side end of a netpipe: consumes packet items (already
/// marshalled) and hands them to the transport. Passive — the upstream
/// section's pump pushes into it.
class NetSender : public PassiveSink {
 public:
  NetSender(std::string name, Transport& link, std::string local_location)
      : PassiveSink(std::move(name)),
        link_(&link),
        location_(std::move(local_location)) {}

  [[nodiscard]] Typespec input_requirement(int) const override {
    return Typespec{{props::kItemType, std::string("bytes")}};
  }

  /// Bound to a transport on this node: pins its section under rebalancing.
  [[nodiscard]] bool migratable() const override { return false; }

 protected:
  void consume(Item x) override { link_->send(realization()->runtime(), std::move(x)); }
  /// Batched path: resolve the runtime once per burst; the transport itself
  /// stays frame-per-item (lockstep parity with the per-item path — a
  /// coalescing send would change on-the-wire framing).
  void consume_span(ItemSpan xs) override {
    rt::Runtime& rtm = realization()->runtime();
    for (Item& x : xs) {
      if (x.is_eos()) {
        on_eos();
        continue;
      }
      if (x.is_nil()) continue;
      link_->send(rtm, std::move(x));
    }
  }
  void on_eos() override { link_->send(realization()->runtime(), Item::eos()); }

 private:
  Transport* link_;
  std::string location_;
};

/// Consumer-side end of a netpipe: an active source whose activity is driven
/// by packet arrivals. Updates the location property of the flow.
class NetReceiver : public ActiveSource {
 public:
  NetReceiver(std::string name, Transport& link, std::string remote_location,
              rt::Priority priority = rt::kPriorityData)
      : ActiveSource(std::move(name), priority),
        link_(&link),
        location_(std::move(remote_location)) {}

  [[nodiscard]] Typespec output_offer(int) const override {
    Typespec t{{props::kItemType, std::string("bytes")},
               {props::kLocation, location_},
               {props::kBandwidthKbps, Range{0.0, link_->bandwidth() / 1e3}}};
    // Let type checking see HOW the flow crossed, not just where it is:
    // "sim" for SimLink, "tcp"/"udp" (+ peer endpoint) for real sockets.
    t.set(props::kTransport, link_->kind());
    if (!link_->endpoint().empty()) t.set(props::kEndpoint, link_->endpoint());
    return t;
  }

  void on_realized() override {
    link_->attach_receiver(realization()->host_thread(*this));
  }

  /// The transport delivers to this receiver's thread: pinned, like every
  /// component attached to an external I/O path.
  [[nodiscard]] bool migratable() const override { return false; }

 protected:
  /// Fire as soon as a packet is available; block (control-responsively)
  /// until one arrives.
  rt::Time next_fire(rt::Time now) override { return now; }

  Item generate() override {
    HostContext& h = realization()->current_host();
    rt::Message m = h.wait(
        [](const rt::Message& x) { return x.type == kMsgNetDeliver; });
    return m.take<Item>();
  }

 private:
  Transport* link_;
  std::string location_;
};

/// Marshalling filter: higher-level information flow -> plain byte flow.
/// The codec pair is supplied by the flow's domain (media provides one for
/// video frames); metadata (seq/timestamp/kind) is preserved by the filter
/// itself so codecs only handle the payload.
class MarshalFilter : public FunctionComponent {
 public:
  using Encode = std::function<std::vector<std::uint8_t>(const Item&)>;

  MarshalFilter(std::string name, Encode enc, std::string item_type)
      : FunctionComponent(std::move(name)),
        enc_(std::move(enc)),
        item_type_(std::move(item_type)) {}

  [[nodiscard]] Typespec input_requirement(int) const override {
    return Typespec{{props::kItemType, item_type_}};
  }
  [[nodiscard]] Typespec transform_downstream(const Typespec& in, int,
                                              int) const override {
    Typespec out = in;
    out.set(props::kItemType, std::string("bytes"));
    return out;
  }

 protected:
  Item convert(Item x) override {
    // The wire copy lives inline or in a pooled byte block (class-rounded,
    // so consecutive messages of similar size recycle the same storage).
    const std::vector<std::uint8_t> bytes = enc_(x);
    Item wire = Item::of_bytes(bytes.data(), bytes.size());
    wire.seq = x.seq;
    wire.timestamp = x.timestamp;
    wire.kind = x.kind;
    return wire;
  }

  /// Batched path: one frame per item, unchanged (coalescing frames would
  /// alter the wire format); the win is the amortized call chain.
  void convert_span(ItemSpan xs) override {
    for (Item& x : xs) {
      if (x.is_data()) x = convert(std::move(x));
    }
  }

 private:
  Encode enc_;
  std::string item_type_;
};

/// Unmarshalling filter: plain byte flow -> higher-level information flow.
class UnmarshalFilter : public FunctionComponent {
 public:
  using Decode = std::function<Item(const std::vector<std::uint8_t>&)>;

  UnmarshalFilter(std::string name, Decode dec, std::string item_type)
      : FunctionComponent(std::move(name)),
        dec_(std::move(dec)),
        item_type_(std::move(item_type)) {}

  [[nodiscard]] Typespec transform_downstream(const Typespec& in, int,
                                              int) const override {
    Typespec out = in;
    out.set(props::kItemType, item_type_);
    return out;
  }

 protected:
  Item convert(Item x) override {
    Item y = Item::nil();
    if (const std::uint8_t* p = x.bytes_data()) {
      // The codec API speaks vectors, so stage through a member scratch
      // whose capacity is reused across messages (assign does not
      // reallocate once it has grown to the flow's packet size).
      scratch_.assign(p, p + x.bytes_size());
      y = dec_(scratch_);
    }
    y.seq = x.seq;
    y.timestamp = x.timestamp;
    y.kind = x.kind;
    return y;
  }

 private:
  Decode dec_;
  std::string item_type_;
  std::vector<std::uint8_t> scratch_;  ///< reused decode staging buffer
};

}  // namespace infopipe::net
