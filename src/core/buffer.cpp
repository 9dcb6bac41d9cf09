#include "core/buffer.hpp"

#include <algorithm>
#include <cassert>
#include <new>

#include "core/realization.hpp"
#include "replay/hooks.hpp"

namespace infopipe {

namespace {

/// Slots beyond capacity for the stopped-flow escape: a burst in flight
/// when its section stops goes here instead of being lost. A one-runtime
/// binding grows the ring when a burst needs more; a two-runtime one waits
/// for the consumer.
constexpr std::size_t kStoppedFlowReserve = 4;

/// Counter update by the counter's only writer: a plain load and store.
void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

std::uint64_t read(const std::atomic<std::uint64_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

/// The order of a waiter's recheck of the positions: seq_cst on a
/// two-runtime binding (it follows the seq_cst waiter store in the Dekker),
/// acquire on one runtime.
constexpr std::memory_order recheck_order(bool cross) noexcept {
  return cross ? std::memory_order_seq_cst : std::memory_order_acquire;
}

}  // namespace

Buffer::Buffer(std::string name, std::size_t capacity, FullPolicy full,
               EmptyPolicy empty)
    : Component(std::move(name)),
      capacity_(capacity == 0 ? 1 : capacity),
      full_(full),
      empty_(empty),
      name_hash_(replay::fnv1a(this->name().data(), this->name().size())) {
  resize_ring(capacity_ + kStoppedFlowReserve, -1);
}

Buffer::~Buffer() {
  for (std::size_t i = 0; i < n_slots_; ++i) slots_[i].~Item();
  mem::numa_free(ring_mem_);
}

void Buffer::resize_ring(std::size_t n_slots, int node) {
  // Without a node preference the slots come from the heap: most buffers
  // are never cut, and a page-granular mapping per buffer would cost every
  // realization an mmap and fresh page faults. numa_free() takes both.
  const std::size_t bytes = n_slots * sizeof(Item);
  mem::NumaBlock block =
      node >= 0 ? mem::numa_alloc(bytes, node)
                : mem::NumaBlock{::operator new(bytes), bytes, false, -1};
  auto* slots = static_cast<Item*>(block.ptr);
  for (std::size_t i = 0; i < n_slots; ++i) ::new (&slots[i]) Item();
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  for (std::uint64_t p = head_.load(std::memory_order_relaxed); p != t; ++p) {
    slots[p % n_slots] = std::move(slots_[p % n_slots_]);
  }
  for (std::size_t i = 0; i < n_slots_; ++i) slots_[i].~Item();
  mem::numa_free(ring_mem_);
  slots_ = slots;
  n_slots_ = n_slots;
  ring_mem_ = block;
  ring_node_.store(node, std::memory_order_release);
}

void Buffer::place_ring(int node) {
  if (node == ring_node() || fill() != 0) return;
  resize_ring(n_slots_, node);
}

// ============================ binding =======================================

void Buffer::rebind(End& e, rt::Runtime& rtm, int shard) noexcept {
  // An unchanged end keeps its waiter: it may be the far end of a
  // migration, running (or parked) meanwhile.
  if (e.rt.load(std::memory_order_relaxed) == &rtm &&
      e.shard.load(std::memory_order_relaxed) == shard) {
    return;
  }
  e.rt.store(&rtm, std::memory_order_release);
  e.shard.store(shard, std::memory_order_release);
  // Whatever waited here before belongs to a torn-down realization.
  e.waiter.store(rt::kNoThread, std::memory_order_relaxed);
  rt::Runtime* p = prod_.rt.load(std::memory_order_relaxed);
  rt::Runtime* c = cons_.rt.load(std::memory_order_relaxed);
  cross_.store(p != nullptr && c != nullptr && p != c,
               std::memory_order_relaxed);
}

void Buffer::bind_producer(rt::Runtime& rtm, int shard) noexcept {
  rebind(prod_, rtm, shard);
}

void Buffer::bind_consumer(rt::Runtime& rtm, int shard) noexcept {
  rebind(cons_, rtm, shard);
}

// ============================ the ring ======================================

std::size_t Buffer::push(ItemSpan xs, std::size_t limit, bool cross) {
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  const std::uint64_t h = head_.load(cross ? std::memory_order_seq_cst
                                           : std::memory_order_acquire);
  // The fill may exceed capacity_ after a stopped-flow move into the
  // reserve; `space` then stays 0 until the consumer catches up.
  const std::uint64_t fill = t - h;
  const std::uint64_t space = fill >= limit ? 0 : limit - fill;
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(space, xs.size()));
  if (n == 0) return 0;
  std::size_t idx = static_cast<std::size_t>(t % n_slots_);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[idx] = std::move(xs[i]);
    if (++idx == n_slots_) idx = 0;
  }
  if (cross) {
    tail_.store(t + n, std::memory_order_seq_cst);
  } else {
    tail_.store(t + n, std::memory_order_release);
  }
  bump(prod_.moved, n);
  if (fill + n > read(max_fill_)) {
    max_fill_.store(fill + n, std::memory_order_relaxed);
  }
  // Tap after the tail store: positions [t, t+n) are published. Only a
  // two-runtime binding is a cross-shard edge worth a replay frame.
  if (cross && replay::tap_sink() != nullptr) {
    replay::note_chan_push(this, name_hash_, t, n, from_shard());
  }
  return n;
}

std::size_t Buffer::pop(ItemSpan out, bool cross) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  const std::uint64_t t = tail_.load(cross ? std::memory_order_seq_cst
                                           : std::memory_order_acquire);
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(t - h, out.size()));
  if (n == 0) return 0;
  // Moves, not copies: no payload reference stays behind in a slot, so an
  // item the consumer drops recycles to the consumer's pool.
  std::size_t idx = static_cast<std::size_t>(h % n_slots_);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::move(slots_[idx]);
    if (++idx == n_slots_) idx = 0;
  }
  if (cross) {
    head_.store(h + n, std::memory_order_seq_cst);
  } else {
    head_.store(h + n, std::memory_order_release);
  }
  bump(cons_.moved, n);
  if (cross && replay::tap_sink() != nullptr) {
    replay::note_chan_pop(this, name_hash_, h, n, to_shard());
  }
  return n;
}

std::size_t Buffer::discard(std::size_t n, End& by, bool cross) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  const std::uint64_t t = tail_.load(cross ? std::memory_order_seq_cst
                                           : std::memory_order_acquire);
  const auto k = static_cast<std::size_t>(std::min<std::uint64_t>(t - h, n));
  if (k == 0) return 0;
  for (std::uint64_t p = h; p != h + k; ++p) slots_[p % n_slots_] = Item();
  if (cross) {
    head_.store(h + k, std::memory_order_seq_cst);
  } else {
    head_.store(h + k, std::memory_order_release);
  }
  bump(by.dropped, k);
  return k;
}

std::size_t Buffer::try_put_span(ItemSpan xs) {
  const bool cross = two_runtimes();
  const std::size_t n = push(xs, capacity_, cross);
  if (n > 0) wake(cons_, prod_, cross);
  return n;
}

std::size_t Buffer::try_take_span(ItemSpan out) {
  const bool cross = two_runtimes();
  const std::size_t n = pop(out, cross);
  if (n > 0) wake(prod_, cons_, cross);
  return n;
}

void Buffer::set_eos() {
  eos_.store(true, std::memory_order_seq_cst);
  wake(cons_, prod_, two_runtimes());
}

// ============================ waiting =======================================

void Buffer::wake(End& e, End& by, bool cross) {
  if (!cross) {
    const rt::ThreadId w = e.waiter.load(std::memory_order_relaxed);
    if (w == rt::kNoThread) return;
    e.waiter.store(rt::kNoThread, std::memory_order_relaxed);
    // A listed waiter's end is bound (wait() asserts it).
    e.rt.load(std::memory_order_relaxed)->unpark(w);
    return;
  }
  // The Dekker's reading side: this load follows the position store.
  if (e.waiter.load(std::memory_order_seq_cst) == rt::kNoThread) return;
  const rt::ThreadId w =
      e.waiter.exchange(rt::kNoThread, std::memory_order_seq_cst);
  rt::Runtime* rtm = e.rt.load(std::memory_order_acquire);
  if (w == rt::kNoThread || rtm == nullptr) return;
  bump(by.wakeups);
  rtm->unpark_external(w);
}

template <typename Ready>
void Buffer::wait(End& e, HostContext& host, bool cross, Ready ready) {
  // The realization binds both ends before any flow runs; wake() unparks
  // through the binding.
  assert(e.rt.load(std::memory_order_relaxed) == &host.runtime());
  const rt::ThreadId me = host.tid();
  if (cross) {
    e.waiter.store(me, std::memory_order_seq_cst);
  } else {
    e.waiter.store(me, std::memory_order_relaxed);
  }
  // The Dekker recheck: the other end may have moved, and missed the
  // listing, between the caller's failed attempt and the store above.
  // `ready` reads the positions seq_cst when `cross` is set.
  if (!ready()) {
    host.await(
        [&] { return e.waiter.load(std::memory_order_acquire) != me; },
        /*interruptible=*/true);
  }
  // Taken off by the other end, or woken by a control event (STOP, FLUSH):
  // either way the caller re-evaluates.
  e.waiter.store(rt::kNoThread, std::memory_order_relaxed);
}

void Buffer::note_block(End& e, rt::Runtime& rtm, int end, rt::Time waited) {
  if (e.hist_owner != &rtm) {
    e.hist_owner = &rtm;
    e.block_hist = &rtm.metrics().histogram("core.buffer_block_ns");
  }
  e.block_hist->record(waited);
  replay::note_hop(&rtm, replay::Hop::kBlock, [&] {
    return replay::HopArgs{name().c_str(), end, waited};
  });
}

void Buffer::note_drop(rt::Runtime& rtm, int policy) const {
  replay::note_hop(&rtm, replay::Hop::kDrop, [&] {
    return replay::HopArgs{name().c_str(), policy,
                           static_cast<std::int64_t>(fill())};
  });
}

// ============================ the glue's operations =========================

void Buffer::put(Item x, HostContext& host) {
  put_span(ItemSpan(&x, 1), host);
}

Item Buffer::take(HostContext& host) {
  Item x;
  (void)take_span(ItemSpan(&x, 1), host);
  return x;
}

void Buffer::put_span(ItemSpan xs, HostContext& host) {
  // What a stopped burst left with the buffer goes in first, and this
  // burst queues behind it.
  std::vector<Item> pending;
  if (!stash_.empty()) {
    pending.swap(stash_);
    for (Item& x : xs) pending.push_back(std::move(x));
    xs = ItemSpan(pending);
  }
  const bool cross = two_runtimes();
  rt::Runtime& rtm = host.runtime();
  const std::size_t n = xs.size();
  std::size_t i = 0;
  while (i < n) {
    if (xs[i].is_eos()) {
      // EOS is a sticky flag, not a queue entry: queued items drain first
      // and every subsequent take observes end-of-stream. EOS travels as
      // a one-item span of its own, so nothing follows it in a burst.
      set_eos();
      return;
    }
    if (const std::size_t moved = push(xs.subspan(i), capacity_, cross)) {
      wake(cons_, prod_, cross);
      i += moved;
      continue;
    }
    // Full: one decision for the whole remainder of the burst.
    if (full_ == FullPolicy::kDropNewest) {
      // The dropped items die here, as a dropped one-item put's item does,
      // not in the caller's span.
      bump(prod_.dropped, n - i);
      for (Item& x : xs.subspan(i)) x = Item();
      note_drop(rtm, 0);
      return;
    }
    if (full_ == FullPolicy::kDropOldest) {
      // Keep the newest `capacity_` items of (queue ++ remainder): evict
      // from the queue front first, then drop the span's own prefix when
      // the remainder alone exceeds capacity.
      std::size_t excess = fill() + (n - i) - capacity_;
      excess -= discard(excess, prod_, cross);
      if (excess > 0) {
        // The span's own prefix is accepted and at once evicted, so it
        // counts as puts AND drops — as one-item puts would count it
        // (puts == takes + fill + drops).
        bump(prod_.moved, excess);
        bump(prod_.dropped, excess);
        for (Item& x : xs.subspan(i, excess)) x = Item();
        i += excess;
      }
      note_drop(rtm, 1);
      continue;
    }
    // FullPolicy::kBlock
    std::size_t limit = capacity_;
    if (host.flow_stopped()) {
      // The section was stopped while this thread was blocked in the push.
      // The burst is already in flight — dropping it would lose data across
      // a stop/restart — so it goes into the reserve; the drain recovers on
      // restart. One runtime grows the ring when the reserve is short.
      if (const std::size_t moved = push(xs.subspan(i), n_slots_, cross)) {
        wake(cons_, prod_, cross);
        i += moved;
        continue;
      }
      if (!cross) {
        resize_ring(2 * n_slots_, ring_node());
        continue;
      }
      // Two runtimes: the ring cannot grow under a running consumer. The
      // rest of the burst becomes the buffer's before this thread waits,
      // so a teardown of the stopped section (a migration) that kills it
      // loses nothing; the next put_span moves it in first.
      for (Item& x : xs.subspan(i)) stash_.push_back(std::move(x));
      i = n;
      limit = n_slots_;
    }
    block_producer(host, cross, limit);
  }
}

std::size_t Buffer::await_space(HostContext& host) {
  const bool cross = two_runtimes();
  const std::memory_order seen = recheck_order(cross);
  while (full_ == FullPolicy::kBlock && fill(seen) >= capacity_) {
    if (host.flow_stopped()) throw detail::StopFlow{};
    block_producer(host, cross, capacity_);
  }
  const std::size_t f = fill(seen);
  return f < capacity_ ? capacity_ - f : 0;
}

void Buffer::block_producer(HostContext& host, bool cross, std::size_t limit) {
  const std::memory_order seen = recheck_order(cross);
  rt::Runtime& rtm = host.runtime();
  bump(prod_.blocks);
  const rt::Time t0 = rtm.now();
  wait(prod_, host, cross, [&] { return fill(seen) < limit; });
  note_block(prod_, rtm, 0, rtm.now() - t0);
}

std::size_t Buffer::take_span(ItemSpan out, HostContext& host) {
  const bool cross = two_runtimes();
  const std::memory_order seen = recheck_order(cross);
  rt::Runtime& rtm = host.runtime();
  for (;;) {
    std::size_t n = pop(out, cross);
    // EOS-drain race: the producer may have pushed and THEN set the sticky
    // flag after the pop above loaded the tail. Observing the flag orders
    // this end after that push, so one re-pop is enough.
    const bool ended = n == 0 && eos();
    if (ended) n = pop(out, cross);
    if (n > 0) {
      wake(prod_, cons_, cross);
      return n;
    }
    if (ended) {
      out[0] = Item::eos();
      return 1;
    }
    if (empty_ == EmptyPolicy::kNil) {
      bump(nil_returns_);
      out[0] = Item::nil();
      return 1;
    }
    if (host.flow_stopped()) throw detail::StopFlow{};
    bump(cons_.blocks);
    const rt::Time t0 = rtm.now();
    wait(cons_, host, cross, [&] { return fill(seen) > 0 || eos(); });
    note_block(cons_, rtm, 1, rtm.now() - t0);
  }
}

void Buffer::handle_event(const Event& e) {
  if (e.type != kEventFlush) return;
  // A consumer-end operation: the space it makes wakes a blocked producer.
  const bool cross = two_runtimes();
  if (discard(fill(), cons_, cross) > 0) wake(prod_, cons_, cross);
}

// ============================ stats =========================================

Buffer::Stats Buffer::stats() const noexcept {
  Stats s;
  s.puts = read(prod_.moved);
  s.takes = read(cons_.moved);
  s.drops = read(prod_.dropped) + read(cons_.dropped);
  s.nil_returns = read(nil_returns_);
  s.put_blocks = read(prod_.blocks);
  s.take_blocks = read(cons_.blocks);
  s.max_fill = static_cast<std::size_t>(read(max_fill_));
  s.wakeups = read(prod_.wakeups) + read(cons_.wakeups);
  return s;
}

BufferStats Buffer::flow_stats() const {
  const Stats s = stats();
  return BufferStats{name(),        fill(),        capacity_,
                     s.max_fill,    s.puts,        s.takes,
                     s.drops,       s.nil_returns, s.put_blocks,
                     s.take_blocks};
}

}  // namespace infopipe
