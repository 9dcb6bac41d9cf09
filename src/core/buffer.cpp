#include "core/buffer.hpp"

#include <algorithm>

#include "core/realization.hpp"

namespace infopipe {

namespace {
void erase_tid(std::vector<rt::ThreadId>& v, rt::ThreadId tid) {
  v.erase(std::remove(v.begin(), v.end(), tid), v.end());
}
}  // namespace

Buffer::Buffer(std::string name, std::size_t capacity, FullPolicy full,
               EmptyPolicy empty)
    : Component(std::move(name)),
      capacity_(capacity == 0 ? 1 : capacity),
      full_(full),
      empty_(empty) {}

obs::Histogram* Buffer::block_hist(HostContext& host) {
  rt::Runtime& rtm = host.runtime();
  if (obs_owner_ != &rtm) {
    obs_owner_ = &rtm;
    obs_block_ns_ = &rtm.metrics().histogram("core.buffer_block_ns");
  }
  return obs_block_ns_;
}

void Buffer::Ring::grow() {
  std::vector<Item> bigger(slots_.empty() ? 4 : 2 * slots_.size());
  for (std::size_t i = 0; i < n_; ++i) {
    bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
  }
  slots_.swap(bigger);
  head_ = 0;
}

void Buffer::notify_one(std::vector<rt::ThreadId>& waiters, rt::Runtime& rt) {
  if (waiters.empty()) return;
  const rt::ThreadId tid = waiters.front();
  waiters.erase(waiters.begin());
  rt.unpark(tid);
}

void Buffer::await_notify(std::vector<rt::ThreadId>& waiters,
                          HostContext& host) {
  const rt::ThreadId me = host.tid();
  waiters.push_back(me);
  host.await(
      [&] { return std::find(waiters.begin(), waiters.end(), me) ==
                   waiters.end(); },
      /*interruptible=*/true);
  // A control event may have woken us instead of a notification (e.g. STOP
  // or FLUSH); deregister and let the caller re-evaluate its condition.
  erase_tid(waiters, me);
}

void Buffer::put(Item x, HostContext& host) {
  put_span(ItemSpan(&x, 1), host);
}

Item Buffer::take(HostContext& host) {
  Item x;
  (void)take_span(ItemSpan(&x, 1), host);
  return x;
}

void Buffer::put_span(ItemSpan xs, HostContext& host) {
  std::size_t i = 0;
  const std::size_t n = xs.size();
  std::size_t queued = 0;
  bool saw_eos = false;
  while (i < n) {
    if (xs[i].is_eos()) {
      // EOS is a sticky flag, not a queue entry: queued items drain first
      // and every subsequent take observes end-of-stream. EOS travels as
      // a one-item span of its own, so nothing follows it in a burst.
      eos_ = true;
      saw_eos = true;
      break;
    }
    if (q_.size() >= capacity_) {
      if (full_ == FullPolicy::kDropNewest) {
        // One decision for the whole remainder of the burst. The dropped
        // items die here, as a dropped one-item put's item does, not in
        // the caller's span.
        stats_.drops += n - i;
        for (Item& x : xs.subspan(i)) x = Item();
        IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kDrop, name().c_str(),
                     0, static_cast<std::int64_t>(q_.size()));
        break;
      }
      if (full_ == FullPolicy::kDropOldest) {
        // Keep the newest `capacity_` items of (queue ++ remainder): evict
        // from the queue front first, then drop the span's own prefix when
        // the remainder alone exceeds capacity.
        const std::size_t remainder = n - i;
        std::size_t excess = q_.size() + remainder - capacity_;
        while (excess > 0 && !q_.empty()) {
          (void)q_.pop_front();
          ++stats_.drops;
          --excess;
        }
        if (excess > 0) {
          // remainder > capacity_: the span's own prefix is accepted and at
          // once evicted, so it counts as puts AND drops — as one-item puts
          // would count it (puts == takes + fill + drops).
          stats_.puts += excess;
          stats_.drops += excess;
          for (Item& x : xs.subspan(i, excess)) x = Item();
          i += excess;
        }
        IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kDrop, name().c_str(),
                     1, static_cast<std::int64_t>(q_.size()));
        continue;
      }
      // FullPolicy::kBlock
      if (host.flow_stopped()) {
        // The section was stopped while this thread was blocked in the
        // push. The burst is already in flight — dropping it would lose
        // data across a stop/restart — so accept it past capacity; the
        // drain recovers on restart.
        q_.push_back(std::move(xs[i]));
        ++queued;
        ++i;
        continue;
      }
      ++stats_.put_blocks;
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferBlock,
                   name().c_str(), 0, static_cast<std::int64_t>(q_.size()));
      const rt::Time t0 = host.runtime().now();
      await_notify(waiting_writers_, host);
      block_hist(host)->record(host.runtime().now() - t0);
      IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferUnblock,
                   name().c_str(), 0, static_cast<std::int64_t>(q_.size()));
      continue;
    }
    q_.push_back(std::move(xs[i]));
    ++queued;
    ++i;
  }
  if (queued > 0 || saw_eos) {
    stats_.puts += queued;
    stats_.max_fill = std::max(stats_.max_fill, q_.size());
    notify_one(waiting_readers_, host.runtime());
  }
}

std::size_t Buffer::take_span(ItemSpan out, HostContext& host) {
  for (;;) {
    if (!q_.empty()) {
      const std::size_t n = std::min(out.size(), q_.size());
      for (std::size_t i = 0; i < n; ++i) out[i] = q_.pop_front();
      stats_.takes += n;
      notify_one(waiting_writers_, host.runtime());
      return n;
    }
    if (eos_) {
      out[0] = Item::eos();
      return 1;
    }
    if (empty_ == EmptyPolicy::kNil) {
      ++stats_.nil_returns;
      out[0] = Item::nil();
      return 1;
    }
    if (host.flow_stopped()) throw detail::StopFlow{};
    ++stats_.take_blocks;
    IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferBlock,
                 name().c_str(), 1, 0);
    const rt::Time t0 = host.runtime().now();
    await_notify(waiting_readers_, host);
    block_hist(host)->record(host.runtime().now() - t0);
    IP_OBS_TRACE(host.runtime().tracer(), obs::Hop::kBufferUnblock,
                 name().c_str(), 1, static_cast<std::int64_t>(q_.size()));
  }
}

std::deque<Item> Buffer::drain_for_migration() {
  std::deque<Item> out;
  while (!q_.empty()) out.push_back(q_.pop_front());
  stats_.takes += out.size();
  return out;
}

void Buffer::preload(Item x) {
  q_.push_back(std::move(x));
  ++stats_.puts;
  stats_.max_fill = std::max(stats_.max_fill, q_.size());
}

void Buffer::handle_event(const Event& e) {
  if (e.type == kEventFlush) {
    stats_.drops += q_.size();
    q_.clear();
    // Space became available: wake one blocked writer, if any.
    if (realization() != nullptr) {
      notify_one(waiting_writers_, realization()->runtime());
    }
  }
}

}  // namespace infopipe
