#include "net/transport.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <new>

#include "replay/hooks.hpp"

namespace infopipe::net {

namespace detail {
/// A burst's storage: this header, then `cap` Item slots, the first `size`
/// of them live.
struct alignas(Item) BurstRep {
  std::uint32_t size = 0;
  std::uint32_t cap = 0;
  BurstRep* next = nullptr;  ///< parked list link
  Item* items() noexcept { return reinterpret_cast<Item*>(this + 1); }
};
static_assert(alignof(BurstRep) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}  // namespace detail

namespace {
using detail::BurstRep;

/// Reps parked per kernel thread, and the largest capacity worth keeping.
constexpr std::size_t kParkedReps = 8;
constexpr std::uint32_t kParkedCap = 1024;

struct ParkedReps {
  BurstRep* head = nullptr;
  std::size_t n = 0;
  ~ParkedReps() {
    while (head != nullptr) ::operator delete(std::exchange(head, head->next));
    n = kParkedReps;  // a burst released later in thread exit is freed
  }
};
thread_local ParkedReps t_parked;

/// A parked rep with room for `need` items, else a fresh one of exactly
/// that capacity.
BurstRep* take_rep(std::uint32_t need) {
  for (BurstRep** link = &t_parked.head; *link != nullptr;
       link = &(*link)->next) {
    if ((*link)->cap >= need) {
      --t_parked.n;
      return std::exchange(*link, (*link)->next);
    }
  }
  void* raw = ::operator new(sizeof(BurstRep) + need * sizeof(Item));
  return ::new (raw) BurstRep{0, need, nullptr};
}

/// A link drop hop: `bytes` lost, `cause` 0 for a full queue, 1 for
/// random loss.
void note_drop(rt::Runtime& rt, std::size_t bytes, int cause) {
  replay::note_hop(&rt, replay::Hop::kDrop, [&] {
    return replay::HopArgs{"link", static_cast<std::int64_t>(bytes), cause};
  });
}
}  // namespace

void detail::park_rep(BurstRep* r) noexcept {
  std::destroy_n(r->items(), r->size);
  r->size = 0;
  if (t_parked.n < kParkedReps && r->cap <= kParkedCap) {
    r->next = std::exchange(t_parked.head, r);
    ++t_parked.n;
  } else {
    ::operator delete(r);
  }
}

Burst::Burst(const Burst& o) {
  for (const Item& x : o.items()) push_back(Item(x));
}

void Burst::push_back(Item&& x) {
  if (rep_ == nullptr) {
    rep_ = take_rep(1);
  } else if (rep_->size == rep_->cap) {
    BurstRep* r = take_rep(std::max<std::uint32_t>(8, 2 * rep_->cap));
    std::uninitialized_move_n(rep_->items(), rep_->size, r->items());
    r->size = rep_->size;
    detail::park_rep(std::exchange(rep_, r));
  }
  ::new (rep_->items() + rep_->size) Item(std::move(x));
  ++rep_->size;
}

ItemSpan Burst::items() const noexcept {
  return rep_ == nullptr ? ItemSpan{} : ItemSpan(rep_->items(), rep_->size);
}

std::size_t SimLink::queue_depth_bytes(rt::Time now) const {
  if (wire_free_at_ <= now) return 0;
  const double backlog_ns = static_cast<double>(wire_free_at_ - now);
  return static_cast<std::size_t>(backlog_ns * bandwidth() / 8e9);
}

void SimLink::send(rt::Runtime& rt, Item packet) {
  const rt::Time now = rt.now();
  if (obs_owner_ != &rt) {
    obs_owner_ = &rt;
    obs::MetricsRegistry& mr = rt.metrics();
    obs_bytes_ = &mr.counter("net.bytes_sent");
    obs_packets_ = &mr.counter("net.packets_sent");
    obs_drops_ = &mr.counter("net.drops");
  }
  if (packet.is_eos()) {
    // End-of-stream travels reliably, after all queued data, without jitter
    // reordering past the last packet.
    const rt::Time at =
        std::max(wire_free_at_, now) + cfg_.base_latency + cfg_.jitter;
    rt.send_at(at, rx_, rt::Message{kMsgNetDeliver, rt::MsgClass::kData,
                                    Burst(std::move(packet))});
    return;
  }

  ++stats_.sent;
  const std::size_t size = std::max<std::size_t>(packet.size_bytes, 1);

  if (queue_depth_bytes(now) + size > cfg_.queue_capacity_bytes) {
    ++stats_.dropped_congestion;  // drop-tail: arbitrary from the app's view
    obs_drops_->inc();
    note_drop(rt, size, 0);
    return;
  }
  if (cfg_.random_loss > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rng_) < cfg_.random_loss) {
      ++stats_.dropped_random;
      obs_drops_->inc();
      note_drop(rt, size, 1);
      return;
    }
  }

  const double tx_ns = static_cast<double>(size) * 8e9 / bandwidth();
  const rt::Time start = std::max(now, wire_free_at_);
  wire_free_at_ = start + static_cast<rt::Time>(std::llround(tx_ns));

  rt::Time jitter = 0;
  if (cfg_.jitter > 0) {
    std::uniform_int_distribution<rt::Time> j(0, cfg_.jitter);
    jitter = j(rng_);
  }
  const rt::Time deliver_at = wire_free_at_ + cfg_.base_latency + jitter;

  stats_.bytes_sent += size;
  ++stats_.delivered_scheduled;
  obs_bytes_->inc(size);
  obs_packets_->inc();
  rt.send_at(deliver_at, rx_,
             rt::Message{kMsgNetDeliver, rt::MsgClass::kData,
                         Burst(std::move(packet))});
}

}  // namespace infopipe::net
