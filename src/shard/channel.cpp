#include "shard/channel.hpp"

#include <algorithm>

#include "core/realization.hpp"

namespace infopipe::shard {

namespace {
/// Overflow slots beyond capacity for the stopped-flow escape (one in-flight
/// item per stop; a few slots cover repeated stop/restart before a drain).
constexpr std::size_t kOverflowReserve = 4;
}  // namespace

ShardChannel::ShardChannel(std::string name, std::size_t capacity,
                           FullPolicy full, EmptyPolicy empty, int numa_node)
    : name_(std::move(name)),
      name_hash_(replay::fnv1a(name_.data(), name_.size())),
      capacity_(capacity == 0 ? 1 : capacity),
      full_(full),
      empty_(empty) {
  alloc_slots(numa_node);
}

ShardChannel::~ShardChannel() { free_slots(); }

void ShardChannel::alloc_slots(int node) {
  n_slots_ = capacity_ + kOverflowReserve;
  ring_mem_ = mem::numa_alloc(n_slots_ * sizeof(Item), node);
  slots_ = static_cast<Item*>(ring_mem_.ptr);
  for (std::size_t i = 0; i < n_slots_; ++i) ::new (&slots_[i]) Item();
  ring_node_.store(node, std::memory_order_release);
}

void ShardChannel::free_slots() noexcept {
  if (slots_ == nullptr) return;
  for (std::size_t i = 0; i < n_slots_; ++i) slots_[i].~Item();
  slots_ = nullptr;
  n_slots_ = 0;
  mem::numa_free(ring_mem_);
}

void ShardChannel::place_ring(int node) {
  if (node == ring_node_.load(std::memory_order_acquire)) return;
  // Precondition (documented in the header): ring empty, both sides quiet.
  if (depth() != 0) return;
  free_slots();
  alloc_slots(node);
}

bool ShardChannel::force_push(Item& x) {
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  const std::uint64_t h = head_.load(std::memory_order_seq_cst);
  if (t - h >= n_slots_) return false;
  slots_[t % n_slots_] = std::move(x);
  tail_.store(t + 1, std::memory_order_seq_cst);
  pushes_.fetch_add(1, std::memory_order_relaxed);
  note_depth(t + 1 - h);
  if (replay::tap_sink() != nullptr) {
    replay::note_chan_push(this, name_hash_, t, 1, from_shard());
  }
  return true;
}

std::size_t ShardChannel::try_push_span(ItemSpan xs) {
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  const std::uint64_t h = head_.load(std::memory_order_seq_cst);
  // depth may transiently exceed capacity_ after a stopped-flow force_push;
  // the saturating subtraction keeps `space` at 0 until the drain catches up.
  const std::uint64_t depth = t - h;
  const std::uint64_t space = depth >= capacity_ ? 0 : capacity_ - depth;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(space, xs.size()));
  if (n == 0) return 0;
  for (std::size_t i = 0; i < n; ++i) {
    slots_[(t + i) % n_slots_] = std::move(xs[i]);
  }
  tail_.store(t + n, std::memory_order_seq_cst);
  pushes_.fetch_add(n, std::memory_order_relaxed);
  note_depth(t + n - h);
  // Tap after the tail store: positions [t, t+n) are published. The sink
  // check is hoisted so the off path never loads the shard binding.
  if (replay::tap_sink() != nullptr) {
    replay::note_chan_push(this, name_hash_, t, n, from_shard());
  }
  return n;
}

std::size_t ShardChannel::try_pop_span(ItemSpan out) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(t - h, out.size()));
  if (n == 0) return 0;
  // Moves, not copies: each slot is left empty (no payload reference stays
  // behind in the ring), so when the consumer side drops an item the block
  // recycles to the CONSUMER's pool / the bounded return-to-owner stash.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::move(slots_[(h + i) % n_slots_]);
  }
  head_.store(h + n, std::memory_order_seq_cst);
  pops_.fetch_add(n, std::memory_order_relaxed);
  if (replay::tap_sink() != nullptr) {
    replay::note_chan_pop(this, name_hash_, h, n, to_shard());
  }
  return n;
}

void ShardChannel::wake_producer() {
  const rt::ThreadId w =
      producer_waiter_.exchange(rt::kNoThread, std::memory_order_seq_cst);
  rt::Runtime* rtm = producer_rt_.load(std::memory_order_acquire);
  if (w == rt::kNoThread || rtm == nullptr) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  rt::Message m{detail::kMsgChanSpace, rt::MsgClass::kData};
  m.payload = static_cast<ShardChannel*>(this);
  rtm->post_external(w, std::move(m));
}

void ShardChannel::wake_consumer() {
  const rt::ThreadId w =
      consumer_waiter_.exchange(rt::kNoThread, std::memory_order_seq_cst);
  rt::Runtime* rtm = consumer_rt_.load(std::memory_order_acquire);
  if (w == rt::kNoThread || rtm == nullptr) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  rt::Message m{detail::kMsgChanData, rt::MsgClass::kData};
  m.payload = static_cast<ShardChannel*>(this);
  rtm->post_external(w, std::move(m));
}

ChannelStats ShardChannel::stats() const {
  ChannelStats s;
  s.flow.name = name_;
  s.flow.fill = depth();
  s.flow.capacity = capacity_;
  s.flow.max_fill =
      static_cast<std::size_t>(max_depth_.load(std::memory_order_relaxed));
  s.flow.puts = pushes_.load(std::memory_order_relaxed);
  s.flow.takes = pops_.load(std::memory_order_relaxed);
  s.flow.drops = drops_.load(std::memory_order_relaxed);
  s.flow.nil_returns = nils_.load(std::memory_order_relaxed);
  s.flow.put_blocks = producer_stalls_.load(std::memory_order_relaxed);
  s.flow.take_blocks = consumer_stalls_.load(std::memory_order_relaxed);
  s.from_shard = producer_shard_.load(std::memory_order_acquire);
  s.to_shard = consumer_shard_.load(std::memory_order_acquire);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  return s;
}

// ============================ ChannelSink ===================================

void ChannelSink::consume(Item x) { consume_span(ItemSpan(&x, 1)); }

void ChannelSink::consume_span(ItemSpan xs) {
  HostContext& host = realization()->current_host();
  ShardChannel& ch = *chan_;
  const std::size_t n = xs.size();
  std::size_t i = 0;
  while (i < n) {
    if (!xs[i].is_data()) {
      // Specials never enter the ring: EOS is the sticky flag (set via
      // on_eos so the wake goes out), nils are dropped exactly as the
      // per-item sink glue drops them (it never hands them to consume()).
      if (xs[i].is_eos()) on_eos();
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && xs[j].is_data()) ++j;
    ItemSpan run = xs.subspan(i, j - i);
    std::size_t done = 0;
    while (done < run.size()) {
      const std::size_t moved = ch.try_push_span(run.subspan(done));
      if (moved > 0) {
        // One wakeup per published chunk, not per item.
        ch.wake_consumer();
        done += moved;
        continue;
      }
      // Ring full: ONE policy decision for the whole remainder of the run.
      if (ch.full_policy() == FullPolicy::kDropNewest) {
        ch.count_drops(run.size() - done);
        // The dropped items die here, not in the caller's span.
        for (Item& x : run.subspan(done)) x = Item();
        IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kDrop, name().c_str(),
                     0, static_cast<std::int64_t>(ch.depth()));
        break;
      }
      ch.count_producer_stall();
      if (host.flow_stopped()) {
        // The section was stopped while this thread was blocked in the
        // push; the remainder is already in flight, so park it in the
        // overflow reserve item by item rather than lose it across a
        // stop/restart (mirrors Buffer's stopped-flow overflow).
        while (done < run.size() && ch.force_push(run[done])) ++done;
        if (done == run.size()) {
          ch.wake_consumer();
          break;
        }
      }
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferBlock,
                   name().c_str(), 0, static_cast<std::int64_t>(ch.depth()));
      ch.register_producer_waiter(host.tid());
      // Dekker recheck: the consumer may have popped (and missed our waiter
      // registration) between the failed reserve and the store above.
      const std::size_t again = ch.try_push_span(run.subspan(done));
      if (again > 0) {
        ch.clear_producer_waiter();
        ch.wake_consumer();
        done += again;
        continue;
      }
      ShardChannel* self = &ch;
      (void)host.wait_interruptible([self](const rt::Message& m) {
        const auto* c = m.get<ShardChannel*>();
        return m.type == detail::kMsgChanSpace && c != nullptr && *c == self;
      });
      // A control event may have woken us instead of a space notification;
      // deregister and re-evaluate.
      ch.clear_producer_waiter();
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferUnblock,
                   name().c_str(), 0, static_cast<std::int64_t>(ch.depth()));
    }
    i = j;
  }
}

void ChannelSink::on_eos() {
  chan_->set_eos();
  chan_->wake_consumer();
}

// ============================ ChannelSource =================================

Item ChannelSource::generate() {
  Item x;
  (void)generate_span(ItemSpan(&x, 1));
  return x;
}

std::size_t ChannelSource::generate_span(ItemSpan out) {
  HostContext& host = realization()->current_host();
  ShardChannel& ch = *chan_;
  for (;;) {
    if (const std::size_t n = ch.try_pop_span(out)) {
      ch.wake_producer();
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kShardHop,
                   name().c_str(), ch.from_shard(), ch.to_shard());
      return n;
    }
    if (ch.eos()) {
      // EOS-drain race: the producer may have pushed items and THEN set the
      // sticky flag after our failed pop loaded the tail. Observing eos_
      // (seq_cst) orders us after that push, so one re-pop is enough —
      // returning EOS here without it would lose the final items and leave
      // nil_returns/pops inconsistent with the producer's pushes.
      if (const std::size_t n = ch.try_pop_span(out)) {
        ch.wake_producer();
        IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kShardHop,
                     name().c_str(), ch.from_shard(), ch.to_shard());
        return n;
      }
      out[0] = Item::eos();
      return 1;
    }
    if (ch.empty_policy() == EmptyPolicy::kNil) {
      ch.count_nil();
      out[0] = Item::nil();
      return 1;
    }
    ch.count_consumer_stall();
    if (host.flow_stopped()) throw infopipe::detail::StopFlow{};
    IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferBlock,
                 name().c_str(), 1, 0);
    ch.register_consumer_waiter(host.tid());
    // Dekker recheck against both the ring and the sticky EOS flag (ring
    // first): the producer may have pushed or ended the stream, and missed
    // our waiter registration, between the failed pop and the store above.
    if (const std::size_t n = ch.try_pop_span(out)) {
      ch.clear_consumer_waiter();
      ch.wake_producer();
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kShardHop,
                   name().c_str(), ch.from_shard(), ch.to_shard());
      return n;
    }
    if (ch.eos()) {
      ch.clear_consumer_waiter();
      // Same EOS-drain re-pop as above: the flag was observed after a
      // failed pop, so drain once more before declaring the end.
      if (const std::size_t n = ch.try_pop_span(out)) {
        ch.wake_producer();
        IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kShardHop,
                     name().c_str(), ch.from_shard(), ch.to_shard());
        return n;
      }
      out[0] = Item::eos();
      return 1;
    }
    ShardChannel* self = &ch;
    (void)host.wait_interruptible([self](const rt::Message& m) {
      const auto* c = m.get<ShardChannel*>();
      return m.type == detail::kMsgChanData && c != nullptr && *c == self;
    });
    ch.clear_consumer_waiter();
    IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferUnblock,
                 name().c_str(), 1, static_cast<std::int64_t>(ch.depth()));
  }
}

}  // namespace infopipe::shard
