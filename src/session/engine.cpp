#include "session/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/event.hpp"

namespace infopipe::session {

SessionSource::SessionSource(std::string name, ShardState* st,
                             double idle_poll_hz, double min_mult)
    : ActiveSource(std::move(name), rt::kPriorityTimer),
      st_(st),
      idle_poll_(idle_poll_hz > 0.0
                     ? static_cast<rt::Time>(1e9 / idle_poll_hz)
                     : rt::milliseconds(5)),
      min_mult_(min_mult),
      bucket_(kBuckets, kNil),
      span_(kSpan) {}

SessionId SessionSource::open(int shard, SessionParams p) {
  const std::lock_guard<std::mutex> lk(pending_mu_);
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.front();
    free_.pop_front();
    ++generation_[slot];
  } else if (generation_.size() < kSessionSlots) {
    slot = static_cast<std::uint32_t>(generation_.size());
    generation_.push_back(1);
  } else {
    throw std::length_error(
        "session: shard " + std::to_string(shard) +
        " has no session slot left to issue (" +
        std::to_string(kSessionSlots) +
        " slots, each retired after its last generation)");
  }
  const SessionId id = make_session_id(shard, slot, generation_[slot]);
  pending_.push_back(PendingOp{true, id, p});
  return id;
}

void SessionSource::enqueue_close(SessionId id) {
  const std::lock_guard<std::mutex> lk(pending_mu_);
  pending_.push_back(PendingOp{false, id, SessionParams{}});
}

void SessionSource::drain_pending(rt::Time now) {
  {
    const std::lock_guard<std::mutex> lk(pending_mu_);
    ops_.swap(pending_);
    for (const std::uint32_t slot : freed_) {
      if (generation_[slot] < kSessionGenerations) free_.push_back(slot);
    }
  }
  freed_.clear();
  // Nothing is on the wheel: the current tick may jump to now.
  if (heap_.empty() && in_buckets_ == 0) tick_ = std::max(tick_, tick_of(now));
  for (const PendingOp& op : ops_) {
    const std::uint32_t slot = slot_of_session(op.id);
    if (op.open) {
      if (slot >= sess_.size()) sess_.resize(slot + 1);
      Sess& s = sess_[slot];
      s = Sess{};
      s.id = op.id;
      const double hz = op.params.rate_hz > 0.0 ? op.params.rate_hz : 1.0;
      s.period = static_cast<rt::Time>(1e9 / hz);
      s.bytes = op.params.payload_bytes;
      s.qos = op.params.qos;
      // First fire at the drain instant, then every period — the same
      // schedule ClockedSourceBase gives a per-flow source, so a per-flow
      // reference emits the same item count at any horizon.
      s.due = now;
      schedule(slot);
    } else if (slot < sess_.size() && sess_[slot].id == op.id) {
      sess_[slot].closed = true;
    }
  }
  ops_.clear();
}

void SessionSource::schedule(std::uint32_t slot) {
  Sess& s = sess_[slot];
  const std::int64_t t = tick_of(s.due);
  if (t <= tick_) {
    heap_.push_back(Due{s.due, s.id});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return;
  }
  std::uint32_t& head = bucket_[static_cast<std::size_t>(t) % kBuckets];
  s.next = head;
  head = slot;
  ++in_buckets_;
}

const SessionSource::Due* SessionSource::front(rt::Time limit) {
  const std::int64_t last = tick_of(limit);
  for (;;) {
    // Advance tick by tick until the heap holds the earliest entry; every
    // bucket entry is then due later than everything in the heap.
    while (heap_.empty() && tick_ < last) {
      if (in_buckets_ == 0) {
        tick_ = last;
        break;
      }
      ++tick_;
      std::uint32_t* link =
          &bucket_[static_cast<std::size_t>(tick_) % kBuckets];
      while (*link != kNil) {
        Sess& s = sess_[*link];
        if (tick_of(s.due) == tick_) {
          heap_.push_back(Due{s.due, s.id});
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
          --in_buckets_;
          *link = s.next;  // unlink; a later revolution's entry stays
        } else {
          link = &s.next;
        }
      }
    }
    if (heap_.empty() || heap_.front().due > limit) return nullptr;
    const std::uint32_t slot = slot_of_session(heap_.front().id);
    Sess& s = sess_[slot];
    if (!s.closed) return &heap_.front();
    // A closed session's entry surfaced: the slot is free from here on.
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    s.id = 0;
    freed_.push_back(slot);
  }
}

void SessionSource::prepare(rt::Time now) { drain_pending(now); }

rt::Time SessionSource::next_fire(rt::Time now) {
  drain_pending(now);
  // The driver protocol sleeps until exactly this instant without
  // re-evaluating on control traffic — the idle-poll bound is what keeps
  // admissions (which arrive as external queue pushes, not as wake-ups)
  // from waiting behind a far-future or empty wheel.
  const rt::Time poll = now + idle_poll_;
  const Due* top = front(poll);
  return top != nullptr ? top->due : poll;
}

void SessionSource::push_span(std::size_t n) {
  items_pumped_ += n;
  st_->emitted.fetch_add(n, std::memory_order_relaxed);
  push_next_span(ItemSpan(span_.data(), n));
}

void SessionSource::cycle() {
  const rt::Time now = pipeline_now();
  std::size_t emitted = 0;
  std::size_t n = 0;
  while (emitted + n < kMaxEmitPerCycle) {
    const Due* top = front(now);
    if (top == nullptr) break;
    const std::uint32_t slot = slot_of_session(top->id);
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    Sess& s = sess_[slot];
    span_[n++] = make_session_item(scratch_, s.id, s.seq, s.due, s.bytes);
    ++s.seq;
    const double m = std::clamp(
        st_->mult[static_cast<std::size_t>(s.qos)].load(
            std::memory_order_relaxed),
        min_mult_, 1.0);
    // Drift-free per session: the next due advances from the scheduled
    // time, not from `now`, scaled by the class multiplier. Control events
    // (the governor's hints) are not delivered inside a cycle, so scheduling
    // before the span leaves is the same as after.
    s.due += static_cast<rt::Time>(static_cast<double>(s.period) / m);
    schedule(slot);
    if (n == kSpan) {
      push_span(n);
      emitted += n;
      n = 0;
    }
  }
  if (n > 0) push_span(n);
}

void ClassGovernor::handle_event(const Event& e) {
  if (e.type != kEventQualityHint) return;
  const double* h = e.get<double>();
  if (h == nullptr) return;
  const double v = std::clamp(*h, min_mult_, 1.0);
  // Gold is never degraded; silver sits halfway between gold and bronze.
  st_->mult[static_cast<std::size_t>(QosClass::kGold)].store(
      1.0, std::memory_order_relaxed);
  st_->mult[static_cast<std::size_t>(QosClass::kSilver)].store(
      std::clamp((1.0 + v) / 2.0, min_mult_, 1.0),
      std::memory_order_relaxed);
  st_->mult[static_cast<std::size_t>(QosClass::kBronze)].store(
      v, std::memory_order_relaxed);
  hints_.fetch_add(1, std::memory_order_relaxed);
}

void SessionSink::consume(Item x) {
  if (x.is_data()) record(x, pipeline_now());
}

void SessionSink::consume_span(ItemSpan xs) {
  const rt::Time now = pipeline_now();
  for (Item& x : xs) {
    if (!x.is_data()) continue;
    record(x, now);
    x = Item{};  // consumed: a pooled payload goes back now
  }
}

void SessionSink::record(const Item& x, rt::Time now) {
  const auto id = static_cast<SessionId>(static_cast<std::uint32_t>(x.kind));
  const std::uint32_t slot = slot_of_session(id);
  if (slot >= recs_.size()) recs_.resize(slot + 1);
  Rec& r = recs_[slot];
  if (r.id != id) {
    if (r.seen > 0) {
      if (ring_.empty()) ring_.resize(kClosed);
      ring_[ring_next_] = Closed{r.id, r.seen, r.digest.h};
      ring_next_ = (ring_next_ + 1) % kClosed;
    }
    r = Rec{};
    r.id = id;
  }
  digest_item(r.digest, x);
  if (r.seen > 0) {
    const auto expected =
        static_cast<std::int64_t>(x.timestamp - r.prev_due);
    const auto actual = static_cast<std::int64_t>(now - r.prev_arrival);
    st_->jitter.record(actual > expected ? actual - expected
                                         : expected - actual);
  }
  r.prev_due = x.timestamp;
  r.prev_arrival = now;
  ++r.seen;
}

SessionSink::Closed SessionSink::find(SessionId id) const {
  const std::uint32_t slot = slot_of_session(id);
  if (slot < recs_.size() && recs_[slot].id == id && recs_[slot].seen > 0) {
    return Closed{id, recs_[slot].seen, recs_[slot].digest.h};
  }
  for (const Closed& c : ring_) {
    if (c.id == id) return c;
  }
  return Closed{};
}

std::uint64_t SessionSink::digest_of(SessionId id) const {
  return find(id).digest;
}

std::uint64_t SessionSink::items_of(SessionId id) const {
  return find(id).items;
}

}  // namespace infopipe::session
