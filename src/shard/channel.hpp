// Lock-free cross-shard channels (ip_shard).
//
// A ShardChannel bridges one cut edge of a partitioned plan: the buffer the
// planner placed between two sections is replaced by a bounded SPSC ring
// whose producer endpoint (ChannelSink) lives on the upstream shard and
// whose consumer endpoint (ChannelSource) lives on the downstream shard.
// The fast path is wait-free — one atomic load, the slot moves, one atomic
// store per burst (a one-item burst for the per-item ops). Only when a side
// finds the ring full/empty does it fall back to the wakeup path: it
// publishes its thread id in a waiter slot and parks in the middleware's
// control-responsive wait; the other side, after every push/pop, exchanges
// the waiter slot and posts a wakeup message through
// rt::Runtime::post_external, which writes the shard's eventfd only when
// the shard is parked in its epoll set, so an idle shard sleeps instead of
// spinning.
//
// The sleep/wake handshake is a classic Dekker pattern on
// (ring state, waiter slot): the waiter stores its tid and THEN re-checks
// the ring; the other side updates the ring and THEN exchanges the waiter
// slot. All four accesses are seq_cst, so one of the two always observes the
// other's write and no wakeup is lost. The runtime's own park uses the same
// pattern on (external_pending_, parked_).
//
// Semantics mirror core::Buffer so a cut is behaviour-preserving:
// end-of-stream is a sticky flag drained after queued items, kDropNewest
// counts drops, EmptyPolicy::kNil returns nils, a stopped flow stashes the
// in-flight item in a small overflow reserve instead of dropping it, and a
// blocked endpoint still dispatches control events (wait_interruptible).
// FullPolicy::kDropOldest cannot be reproduced without racing the consumer;
// partition() colocates such buffers so they are never cut.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/buffer.hpp"
#include "core/introspect.hpp"
#include "core/item.hpp"
#include "core/typespec.hpp"
#include "mem/numa.hpp"
#include "replay/hooks.hpp"
#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe::shard {

namespace detail {
/// rt message types of the cross-shard wakeup path (payload: the
/// ShardChannel*). Values allotted in rt/msg_registry.hpp.
enum ShardMsgType : int {
  kMsgChanData = rt::msg::kChanData,    ///< ring has data; wakes a consumer
  kMsgChanSpace = rt::msg::kChanSpace,  ///< ring has space; wakes a producer
  kMsgRunFn = rt::msg::kRunFn,          ///< ShardGroup::run_on payload
};
}  // namespace detail

/// The bounded SPSC ring plus the cross-shard wakeup protocol. One producer
/// thread (on the bound producer runtime) and one consumer thread (on the
/// bound consumer runtime) at a time; the sharded realization guarantees
/// this by construction (a cut buffer has exactly one upstream and one
/// downstream section).
class ShardChannel {
 public:
  /// `numa_node` >= 0 requests the ring storage on that NUMA node (the
  /// consumer shard's node, normally — the consumer touches every slot
  /// last); < 0 allocates without preference.
  ShardChannel(std::string name, std::size_t capacity,
               FullPolicy full = FullPolicy::kBlock,
               EmptyPolicy empty = EmptyPolicy::kBlock, int numa_node = -1);
  ~ShardChannel();

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// FNV-1a of name(), precomputed at construction: how replay frames
  /// identify this ring without carrying the string.
  [[nodiscard]] std::uint64_t name_hash() const noexcept {
    return name_hash_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] FullPolicy full_policy() const noexcept { return full_; }
  [[nodiscard]] EmptyPolicy empty_policy() const noexcept { return empty_; }
  [[nodiscard]] int from_shard() const noexcept {
    return producer_shard_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int to_shard() const noexcept {
    return consumer_shard_.load(std::memory_order_acquire);
  }

  /// Wiring: which runtime/shard hosts each side. Atomic stores because live
  /// migration re-binds one side of a persisting cut while the FAR side may
  /// be mid-push/pop: the far side only dereferences the rebound pointer in
  /// wake_*(), and the moved side's section is quiesced (its waiter slot is
  /// kNoThread), so the worst case is a wakeup posted to the new runtime for
  /// a thread id that no longer exists there — rt::Runtime::send drops sends
  /// to unknown threads by design.
  void bind_producer(rt::Runtime& rtm, int shard) {
    producer_rt_.store(&rtm, std::memory_order_release);
    producer_shard_.store(shard, std::memory_order_release);
  }
  void bind_consumer(rt::Runtime& rtm, int shard) {
    consumer_rt_.store(&rtm, std::memory_order_release);
    consumer_shard_.store(shard, std::memory_order_release);
  }

  /// Re-allocates the ring storage on `node`. Only legal while the ring is
  /// EMPTY and neither side is mid-push/pop — i.e. at construction/binding
  /// time or under a migration quiesce. A no-op if the ring already sits on
  /// `node`. (A re-bind of a NON-empty ring under migration keeps the old
  /// placement: moving live slots would race the far side.)
  void place_ring(int node);

  /// The NUMA node the ring storage was REQUESTED on (-1: no preference).
  /// This is the placement decision, recorded even where the kernel lacks
  /// NUMA support — what the injected-topology tests verify.
  [[nodiscard]] int ring_node() const noexcept {
    return ring_node_.load(std::memory_order_acquire);
  }

  // -- ring (producer side: try_push/force_push; consumer side: try_pop) -----

  /// Moves `x` into the ring if depth < capacity: an adapter over
  /// try_push_span() of one item (same tap frame, n = 1). Producer shard
  /// only.
  bool try_push(Item& x) { return try_push_span(ItemSpan(&x, 1)) == 1; }
  /// Like try_push but may use the small overflow reserve beyond capacity;
  /// the stopped-flow escape hatch mirroring Buffer's transient overflow.
  /// Per-item by design: the one queue op with no span twin. Returns false
  /// only when even the reserve is full.
  bool force_push(Item& x);
  /// Takes the oldest item, if any: an adapter over try_pop_span() of one
  /// item (same tap frame, n = 1). Consumer shard only.
  std::optional<Item> try_pop() {
    std::optional<Item> x(std::in_place);
    if (try_pop_span(ItemSpan(&*x, 1)) == 0) x.reset();
    return x;
  }

  /// Claims min(space, xs.size()) slots and publishes them with ONE tail
  /// store. SPSC makes the single store a full N-slot reservation — the
  /// producer is the only tail writer, so the consumer either sees none or
  /// all of the burst; no CAS loop is needed. Never touches the overflow
  /// reserve. Returns how many items moved (0: full).
  std::size_t try_push_span(ItemSpan xs);
  /// Moves up to out.size() queued items out with ONE head store. Returns
  /// how many (0: empty).
  std::size_t try_pop_span(ItemSpan out);

  /// Sticky end-of-stream: queued items drain first, then the consumer
  /// observes EOS forever (exactly Buffer's eos_ flag).
  void set_eos() noexcept { eos_.store(true, std::memory_order_seq_cst); }
  [[nodiscard]] bool eos() const noexcept {
    return eos_.load(std::memory_order_seq_cst);
  }

  /// Approximate while both shards run; exact when one side is parked.
  [[nodiscard]] std::size_t depth() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  // -- sleep/wake handshake ----------------------------------------------------

  void register_producer_waiter(rt::ThreadId tid) noexcept {
    producer_waiter_.store(tid, std::memory_order_seq_cst);
  }
  void clear_producer_waiter() noexcept {
    producer_waiter_.store(rt::kNoThread, std::memory_order_seq_cst);
  }
  void register_consumer_waiter(rt::ThreadId tid) noexcept {
    consumer_waiter_.store(tid, std::memory_order_seq_cst);
  }
  void clear_consumer_waiter() noexcept {
    consumer_waiter_.store(rt::kNoThread, std::memory_order_seq_cst);
  }

  /// Posts kMsgChanSpace to a parked producer, if one registered. Called by
  /// the consumer after every pop.
  void wake_producer();
  /// Posts kMsgChanData to a parked consumer, if one registered. Called by
  /// the producer after every push (and on EOS).
  void wake_consumer();

  // -- stats (relaxed atomics, sampled by stats()) ----------------------------

  void count_drops(std::uint64_t n) noexcept {
    drops_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_nil() noexcept { nils_.fetch_add(1, std::memory_order_relaxed); }
  void count_producer_stall() noexcept {
    producer_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_consumer_stall() noexcept {
    consumer_stalls_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t producer_stalls() const noexcept {
    return producer_stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_stalls() const noexcept {
    return consumer_stalls_.load(std::memory_order_relaxed);
  }

  /// Rendered in the BufferStats schema (stats().flow): the channel is the
  /// buffer it replaced, so fill==depth, puts==pushes, takes==pops,
  /// put_blocks==producer stalls, take_blocks==consumer stalls.
  [[nodiscard]] ChannelStats stats() const;

 private:
  /// (Re)creates the slot array on `node`; ring must be empty.
  void alloc_slots(int node);
  void free_slots() noexcept;

  std::string name_;
  std::uint64_t name_hash_;
  std::size_t capacity_;
  FullPolicy full_;
  EmptyPolicy empty_;

  // Ring storage: capacity_ + overflow reserve default-constructed Items in
  // raw NUMA-aware storage (mem/numa.hpp) so the slot array — which every
  // item crossing the cut is moved through — can live on the consumer
  // shard's node.
  Item* slots_ = nullptr;
  std::size_t n_slots_ = 0;
  mem::NumaBlock ring_mem_;
  std::atomic<int> ring_node_{-1};

  // Monotonic positions; slot index = position % slots_.size(). 64-bit
  // counters make wraparound a non-issue at any realistic item rate.
  std::atomic<std::uint64_t> head_{0};  ///< next pop position
  std::atomic<std::uint64_t> tail_{0};  ///< next push position
  std::atomic<bool> eos_{false};

  /// High-water mark. Only the producer writes it (right after its own
  /// push), so a plain load-compare-store is enough.
  void note_depth(std::uint64_t d) noexcept {
    if (d > max_depth_.load(std::memory_order_relaxed)) {
      max_depth_.store(d, std::memory_order_relaxed);
    }
  }

  std::atomic<rt::Runtime*> producer_rt_{nullptr};
  std::atomic<rt::Runtime*> consumer_rt_{nullptr};
  std::atomic<int> producer_shard_{0};
  std::atomic<int> consumer_shard_{0};
  std::atomic<rt::ThreadId> producer_waiter_{rt::kNoThread};
  std::atomic<rt::ThreadId> consumer_waiter_{rt::kNoThread};

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> producer_stalls_{0};
  std::atomic<std::uint64_t> consumer_stalls_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> nils_{0};
  std::atomic<std::uint64_t> max_depth_{0};  ///< producer-side single writer
};

/// Upstream endpoint of a cut: a passive sink the upstream section's driver
/// pushes into, exactly where it used to push into the cut buffer. Blocking
/// follows Buffer::put_span — control events are dispatched while blocked,
/// a stopped flow escapes into the overflow reserve instead of losing the
/// in-flight items. The per-item consume() is an adapter over consume_span()
/// of one item, so every item takes the same path.
class ChannelSink : public PassiveSink {
 public:
  explicit ChannelSink(ShardChannel& chan)
      : PassiveSink(chan.name() + ".send"), chan_(&chan) {}

  [[nodiscard]] ShardChannel& channel() noexcept { return *chan_; }

 protected:
  void consume(Item x) override;
  /// Publishes runs of data items through try_push_span — one ring
  /// reservation and one wakeup per chunk instead of per item.
  void consume_span(ItemSpan xs) override;
  void on_eos() override;

 private:
  ShardChannel* chan_;
};

/// Downstream endpoint of a cut: a passive source the downstream section's
/// driver pulls from, exactly where it used to take from the cut buffer.
/// Offers the Typespec the original plan propagated onto the cut edge, so
/// sub-pipeline planning sees the same flow description. The per-item
/// generate() is an adapter over generate_span() of one item.
class ChannelSource : public PassiveSource {
 public:
  ChannelSource(ShardChannel& chan, Typespec offer)
      : PassiveSource(chan.name() + ".recv"),
        chan_(&chan),
        offer_(std::move(offer)) {}

  [[nodiscard]] ShardChannel& channel() noexcept { return *chan_; }
  [[nodiscard]] Typespec output_offer(int port) const override {
    (void)port;
    return offer_;
  }

 protected:
  Item generate() override;
  /// Drains a whole run of queued items in one head move.
  std::size_t generate_span(ItemSpan out) override;

 private:
  ShardChannel* chan_;
  Typespec offer_;
};

}  // namespace infopipe::shard
