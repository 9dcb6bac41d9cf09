// Buffers: temporary storage that removes rate fluctuations (§2.1).
//
// A buffer has two passive ends and is therefore a *section boundary*: the
// upstream section's driver pushes into it and the downstream section's
// driver pulls out of it, each on its own thread. §2.3: "if a buffer is
// full, the push operation can either be blocked or can drop the pushed
// item. Likewise, if a buffer is empty, a pull operation can either be
// blocked or return a nil item." Blocking is implemented with the
// middleware's rendezvous (HostContext::await): a waiter is listed, parked
// and unparked when it is taken off the list, and stays responsive to
// control events meanwhile (§3.2) — no locks or condition variables appear
// here or anywhere in component code.
//
// One queue, wherever its ends run. The items sit in one fixed ring of
// `capacity` slots plus a small stopped-flow reserve, addressed by
// monotonic head/tail positions: only the consumer end advances head and
// only the producer end advances tail, so a burst costs one position load,
// the slot moves and one position store. Each end binds to the runtime that
// hosts it at realize time — a Realization binds both ends to its runtime,
// a sharded realization binds a cut buffer's ends to two shards' runtimes.
// A blocked end lists its thread in its waiter slot and parks; the other
// end takes it off the slot after its next move and wakes it with
// Runtime::unpark when both ends share a runtime, or with
// Runtime::unpark_external (the thread-safe post path) when they do not.
//
// Only a two-runtime binding pays for the cross-thread handshake, a Dekker
// pattern on (position, waiter slot): the waiter stores its id and THEN
// re-checks the ring; the other end moves its position and THEN exchanges
// the waiter slot. All four accesses are seq_cst — the recheck reads the
// positions through fill(seq_cst) and eos() — so one side always observes
// the other's write and no wakeup is lost. A one-runtime binding needs no
// such ordering — both ends run on one kernel thread — and uses
// release/acquire positions and a plain slot update. The binding decides;
// nothing else selects the handshake.
//
// FullPolicy::kDropOldest evicts at the consumer's end of the ring, which
// would race a consumer on another kernel thread, so the sharded
// realization never cuts such a buffer: the one exception to "any buffer
// may be cut".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/component.hpp"
#include "core/introspect.hpp"
#include "mem/numa.hpp"
#include "rt/types.hpp"

namespace infopipe {

namespace obs {
class Histogram;
}  // namespace obs
namespace rt {
class Runtime;
}  // namespace rt

class HostContext;

enum class FullPolicy {
  kBlock,       ///< block the pushing thread until space is available
  kDropNewest,  ///< drop the pushed item
  kDropOldest,  ///< drop the oldest queued item to make room
};

enum class EmptyPolicy {
  kBlock,  ///< block the pulling thread until an item arrives
  kNil,    ///< return Item::nil()
};

class Buffer : public Component {
 public:
  Buffer(std::string name, std::size_t capacity,
         FullPolicy full = FullPolicy::kBlock,
         EmptyPolicy empty = EmptyPolicy::kBlock);
  ~Buffer() override;

  [[nodiscard]] Style style() const override { return Style::kBuffer; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Queued items. Exact when neither end is mid-operation; any thread may
  /// read it (two atomic loads, head first, so it never underflows).
  [[nodiscard]] std::size_t fill() const noexcept {
    return fill(std::memory_order_acquire);
  }
  /// The same read with both loads at `order`: a waiter's recheck on a
  /// two-runtime binding reads seq_cst, its half of the handshake.
  [[nodiscard]] std::size_t fill(std::memory_order order) const noexcept {
    const std::uint64_t h = head_.load(order);
    return static_cast<std::size_t>(tail_.load(order) - h);
  }
  [[nodiscard]] FullPolicy full_policy() const noexcept { return full_; }
  [[nodiscard]] EmptyPolicy empty_policy() const noexcept { return empty_; }

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t takes = 0;
    std::uint64_t drops = 0;       ///< items lost to the full policy or FLUSH
    std::uint64_t nil_returns = 0; ///< empty pulls under the nil policy
    std::uint64_t put_blocks = 0;  ///< times a pusher had to wait
    std::uint64_t take_blocks = 0; ///< times a puller had to wait
    std::size_t max_fill = 0;
    std::uint64_t wakeups = 0;     ///< wakes posted across runtimes
  };
  /// A sample of the counters. Each counter has one writing end and is read
  /// with relaxed loads, so any thread may sample; the sample is exact when
  /// neither end is mid-operation.
  [[nodiscard]] Stats stats() const noexcept;
  /// The same sample in the introspection schema (name, fill, capacity).
  [[nodiscard]] BufferStats flow_stats() const;

  // -- middleware interface (called by the glue, not by applications) --------

  /// Insert one item: put_span() of a one-item span, so every item takes
  /// the same path whatever the burst size. An EOS item sets the sticky
  /// end-of-stream flag instead of occupying space.
  void put(Item x, HostContext& host);

  /// Remove one item: take_span() into a one-item span. Returns Item::eos()
  /// once drained past end-of-stream, Item::nil() on empty under the nil
  /// policy.
  [[nodiscard]] Item take(HostContext& host);

  /// Insert a burst with ONE policy/stats decision per ring move instead of
  /// one per item, honouring the full policy. The end state is
  /// sequential-equivalent to one-item puts: kDropNewest drops the part
  /// that does not fit, kDropOldest keeps the newest `capacity` items of
  /// (queue ++ xs) — which may mean dropping a PREFIX of the span itself,
  /// counted as puts and drops like any evicted item — and kBlock waits for
  /// space (one put_blocks tick per wait), or, when the flow was stopped
  /// meanwhile, moves the burst into the reserve. Items of `xs` that are
  /// dropped are reset to nil at the drop, so their payloads die there and
  /// not with the caller's span. On a two-runtime binding a stopped burst
  /// that overruns the reserve is stashed by the producer end before it
  /// waits, so a migration that tears the stopped section down loses
  /// nothing; the next put_span moves the stash in ahead of its own burst.
  void put_span(ItemSpan xs, HostContext& host);

  /// Producer end: the ring's free space below capacity, waiting first
  /// while a kBlock buffer is full (parked like a blocked put, one
  /// put_blocks tick per wait). Throws detail::StopFlow when the flow is
  /// stopped meanwhile — the caller holds no items yet. A free-running
  /// pump sizes its burst with it, so it never blocks holding one.
  [[nodiscard]] std::size_t await_space(HostContext& host);

  /// Move up to out.size() queued items into `out` and return how many,
  /// with one stats decision per burst, honouring the empty policy. A burst
  /// never crosses the end of the queued data into a special: an empty
  /// buffer yields a single Item::eos() (drained past end-of-stream) or
  /// Item::nil() (nil policy) at out[0].
  [[nodiscard]] std::size_t take_span(ItemSpan out, HostContext& host);

  /// kEventFlush, a consumer-end operation: discards every queued item,
  /// counting each as a drop, and wakes a blocked producer.
  void handle_event(const Event& e) override;

  // -- non-blocking ring operations --------------------------------------------

  /// Producer end: moves min(space, xs.size()) items in with ONE tail store
  /// and returns how many (0: full); never touches the reserve and never
  /// waits. Counts puts and wakes a blocked consumer.
  std::size_t try_put_span(ItemSpan xs);
  bool try_put(Item& x) { return try_put_span(ItemSpan(&x, 1)) == 1; }
  /// Consumer end: moves up to out.size() queued items out with ONE head
  /// store and returns how many (0: empty). Counts takes and wakes a
  /// blocked producer.
  std::size_t try_take_span(ItemSpan out);
  std::optional<Item> try_take() {
    std::optional<Item> x(std::in_place);
    if (try_take_span(ItemSpan(&*x, 1)) == 0) x.reset();
    return x;
  }

  /// Producer end: sticky end-of-stream. Queued items drain first, then the
  /// consumer observes EOS forever. Wakes a blocked consumer.
  void set_eos();
  [[nodiscard]] bool eos() const noexcept {
    return eos_.load(std::memory_order_seq_cst);
  }

  // -- binding (realize time, or a migration with both ends quiesced) ---------

  /// Which runtime hosts each end, and which shard that is (0 outside a
  /// sharded realization). The handshake follows: two runtimes pay the
  /// seq_cst Dekker, one does not. Rebinding an end clears its waiter slot;
  /// binding it to its current runtime and shard changes nothing. A
  /// migration may rebind one end of a two-runtime binding while the far
  /// end runs; the far end only loads the runtime pointer when it wakes the
  /// moved end.
  void bind_producer(rt::Runtime& rtm, int shard = 0) noexcept;
  void bind_consumer(rt::Runtime& rtm, int shard = 0) noexcept;
  [[nodiscard]] int from_shard() const noexcept {
    return prod_.shard.load(std::memory_order_acquire);
  }
  [[nodiscard]] int to_shard() const noexcept {
    return cons_.shard.load(std::memory_order_acquire);
  }
  /// True when the ends are bound to two different runtimes.
  [[nodiscard]] bool two_runtimes() const noexcept {
    return cross_.load(std::memory_order_relaxed);
  }

  /// Re-allocates the empty ring on NUMA node `node` (< 0: no preference).
  /// A no-op if the ring already sits there or holds items. Call it from
  /// the producer end's thread, or with both ends quiet: the producer must
  /// not be mid-move.
  void place_ring(int node);
  /// The node the ring storage was REQUESTED on (-1: no preference) — the
  /// decision, recorded even where the kernel lacks NUMA support.
  [[nodiscard]] int ring_node() const noexcept {
    return ring_node_.load(std::memory_order_acquire);
  }

 private:
  /// One end's binding, waiter slot and counters. Each end's state sits on
  /// its own cache lines and is written by that end's thread only, except
  /// the waiter slot, which the other end clears when it wakes the waiter.
  struct End {
    std::atomic<rt::Runtime*> rt{nullptr};
    std::atomic<int> shard{0};
    std::atomic<rt::ThreadId> waiter{rt::kNoThread};
    std::atomic<std::uint64_t> moved{0};    ///< puts / takes
    std::atomic<std::uint64_t> blocks{0};   ///< put_blocks / take_blocks
    std::atomic<std::uint64_t> dropped{0};  ///< full policy / FLUSH drops
    std::atomic<std::uint64_t> wakeups{0};  ///< remote wakes of the far end
    /// Block-time histogram handle, resolved on the (already slow) block
    /// path against the runtime the end waits on.
    obs::Histogram* block_hist = nullptr;
    const rt::Runtime* hist_owner = nullptr;
  };

  /// Moves min(limit - fill, xs.size()) items in; `limit` is capacity_, or
  /// the slot count for the stopped-flow reserve.
  std::size_t push(ItemSpan xs, std::size_t limit, bool cross);
  std::size_t pop(ItemSpan out, bool cross);
  /// Drops up to `n` items at the head, counted in `by`'s drops: kDropOldest
  /// eviction at the producer end, FLUSH at the consumer end.
  std::size_t discard(std::size_t n, End& by, bool cross);

  /// Takes the waiter off `e`'s slot and wakes it: unpark on a one-runtime
  /// binding, unpark_external (counted in `by.wakeups`) on a two-runtime one.
  static void wake(End& e, End& by, bool cross);
  /// Lists this thread in `e`'s slot, re-checks `ready` (the Dekker recheck)
  /// and parks until the other end takes it off, or a control event
  /// arrives (then it takes itself off and the caller re-evaluates).
  template <typename Ready>
  void wait(End& e, HostContext& host, bool cross, Ready ready);
  /// One producer-end block: waits until the fill is below `limit` or a
  /// control event arrives, counted as one put_blocks tick.
  void block_producer(HostContext& host, bool cross, std::size_t limit);
  static obs::Histogram* block_hist(End& e, rt::Runtime& rtm);
  void rebind(End& e, rt::Runtime& rtm, int shard) noexcept;

  /// Replaces the slot array with `n_slots` slots on `node`, carrying the
  /// queued items over at their positions.
  void resize_ring(std::size_t n_slots, int node);

  std::size_t capacity_;
  FullPolicy full_;
  EmptyPolicy empty_;
  std::uint64_t name_hash_;  ///< FNV-1a of name(): the ring in replay frames

  /// capacity_ plus the reserve default-constructed Items, in NUMA-aware
  /// raw storage so a cut's ring can live on the consumer shard's node.
  Item* slots_ = nullptr;
  std::size_t n_slots_ = 0;
  mem::NumaBlock ring_mem_;
  std::atomic<int> ring_node_{-1};
  std::atomic<bool> cross_{false};
  std::atomic<bool> eos_{false};

  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next take position
  std::atomic<std::uint64_t> nil_returns_{0};
  End cons_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next put position
  std::atomic<std::uint64_t> max_fill_{0};
  End prod_;
  /// Producer end only: the rest of a stopped burst on a two-runtime
  /// binding, in order, ahead of any later put.
  std::vector<Item> stash_;
};

}  // namespace infopipe
