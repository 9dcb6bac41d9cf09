// Simulated best-effort transport (DESIGN.md §3, substitution for a real
// network).
//
// The paper's netpipes encapsulate "a best-effort transport protocol" whose
// observable properties are bandwidth, latency, jitter and congestion loss
// (§2.1/§2.4). SimLink models exactly those: packets are serialized at the
// link bandwidth behind a drop-tail queue, then propagated with a base delay
// plus deterministic pseudo-random jitter. When the queue is full the link
// drops — "rather than incurring arbitrary dropping in the network", the
// Figure 1 pipeline puts a feedback-controlled filter in front of it.
#pragma once

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <utility>

#include "core/item.hpp"
#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe::net {

/// rt message type for packet delivery to a NetReceiver thread (value
/// allotted in rt/msg_registry.hpp); its payload is a Burst.
inline constexpr int kMsgNetDeliver = rt::msg::kNetDeliver;

namespace detail {
struct BurstRep;
/// Destroys a burst's items and parks or frees its storage.
void park_rep(BurstRep* r) noexcept;
}  // namespace detail

/// The packets of one delivery, in order, an EOS (if any) last: every frame
/// one socket read parsed, or one SimLink packet. Pointer-sized, so a
/// message holds it without a heap box; its storage is parked on the kernel
/// thread that releases it and reused by the next burst made there, so a
/// steady flow of deliveries allocates nothing and a first one-packet
/// delivery allocates once.
class Burst {
 public:
  Burst() noexcept = default;
  explicit Burst(Item&& x) { push_back(std::move(x)); }
  Burst(const Burst& o);  ///< deep copy (std::any requires one)
  Burst(Burst&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  Burst& operator=(Burst o) noexcept {
    std::swap(rep_, o.rep_);
    return *this;
  }
  /// Inline: a message moves its burst (timer heaps, mailboxes), and a
  /// moved-from burst has nothing to release.
  ~Burst() {
    if (rep_ != nullptr) detail::park_rep(rep_);
  }

  void push_back(Item&& x);
  /// The packets; the receiver moves them out.
  [[nodiscard]] ItemSpan items() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return items().empty(); }

 private:
  detail::BurstRep* rep_ = nullptr;
};

/// A transport protocol a netpipe can encapsulate (§2.4: "different
/// transport protocols can be easily integrated into the Infopipe framework
/// as netpipes"). Implementations: SimLink (simulated best-effort),
/// ReliableTransport (ARQ over a lossy link), and SocketTransport (real
/// nonblocking TCP/UDP sockets between OS processes, ip_netreal).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Packets arrive at this thread as kMsgNetDeliver messages, each
  /// carrying one Burst: SimLink sends one-packet bursts (its per-packet
  /// timing is its semantics), ReliableTransport releases each in-order run
  /// as one burst, and SocketTransport sends one burst per read.
  virtual void attach_receiver(rt::ThreadId tid) = 0;

  /// Transmit one packet item. May drop, delay or reorder according to the
  /// protocol's semantics. EOS items mark the end of the flow.
  virtual void send(rt::Runtime& rt, Item packet) = 0;

  /// Nominal capacity, for the netpipe's QoS mapping.
  [[nodiscard]] virtual double bandwidth() const = 0;

  /// Transport kind for the flow's Typespec (props::kTransport): "sim",
  /// "tcp", "udp". The netpipe ends publish it so type checking can see
  /// not only WHERE a flow lives but HOW it travels.
  [[nodiscard]] virtual std::string kind() const { return "sim"; }

  /// Remote endpoint ("host:port") for props::kEndpoint; empty when the
  /// transport has no address (in-process simulation).
  [[nodiscard]] virtual std::string endpoint() const { return {}; }
};

struct LinkConfig {
  double bandwidth_bps = 10e6;        ///< serialization rate
  rt::Time base_latency = rt::milliseconds(20);
  rt::Time jitter = 0;                ///< uniform in [0, jitter]
  std::size_t queue_capacity_bytes = 64 * 1024;  ///< drop-tail beyond this
  double random_loss = 0.0;           ///< independent loss probability
  std::uint64_t seed = 42;            ///< jitter/loss determinism
};

class SimLink : public Transport {
 public:
  explicit SimLink(LinkConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

  /// Attach the receiving end: each packet is delivered as a one-packet
  /// burst to this thread.
  void attach_receiver(rt::ThreadId tid) override { rx_ = tid; }
  [[nodiscard]] rt::ThreadId receiver() const noexcept { return rx_; }

  /// Transmit one packet item (its size_bytes drives the cost). Called from
  /// the sending section's thread. May drop (congestion / random loss).
  /// EOS items are never dropped and are scheduled after everything queued.
  void send(rt::Runtime& rt, Item packet) override;

  /// Change the available bandwidth while running (congestion episodes for
  /// the adaptation experiments). Safe against a concurrent send() on the
  /// link's runtime thread: the adaptation experiments mutate this live
  /// from other kernel threads, so the field is atomic — a torn read of a
  /// double would feed the serializer a garbage rate.
  void set_bandwidth(double bps) {
    bandwidth_bps_.store(bps, std::memory_order_relaxed);
  }
  [[nodiscard]] double bandwidth() const noexcept override {
    return bandwidth_bps_.load(std::memory_order_relaxed);
  }
  /// Static link parameters; bandwidth_bps holds the CONSTRUCTION value
  /// (read the live one through bandwidth()).
  [[nodiscard]] const LinkConfig& config() const noexcept { return cfg_; }

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered_scheduled = 0;
    std::uint64_t dropped_congestion = 0;
    std::uint64_t dropped_random = 0;
    std::uint64_t bytes_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Bytes currently "in the queue" (scheduled but not yet on the wire).
  [[nodiscard]] std::size_t queue_depth_bytes(rt::Time now) const;

 private:
  LinkConfig cfg_;
  std::atomic<double> bandwidth_bps_{cfg_.bandwidth_bps};
  std::mt19937_64 rng_;
  rt::ThreadId rx_ = rt::kNoThread;
  rt::Time wire_free_at_ = 0;  ///< when the serializer finishes current work
  Stats stats_;
  // Registry handles, cached on first send against the runtime doing it
  // (a link object can outlive a runtime across experiments).
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_packets_ = nullptr;
  obs::Counter* obs_drops_ = nullptr;
  const void* obs_owner_ = nullptr;
};

}  // namespace infopipe::net
