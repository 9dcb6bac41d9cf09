#include "session/engine.hpp"

#include <algorithm>
#include <cmath>

#include "core/event.hpp"

namespace infopipe::session {

SessionSource::SessionSource(std::string name, ShardState* st,
                             double idle_poll_hz, double min_mult)
    : ActiveSource(std::move(name), rt::kPriorityTimer),
      st_(st),
      idle_poll_(idle_poll_hz > 0.0
                     ? static_cast<rt::Time>(1e9 / idle_poll_hz)
                     : rt::milliseconds(5)),
      min_mult_(min_mult) {}

void SessionSource::enqueue_open(SessionId id, SessionParams p) {
  const std::lock_guard<std::mutex> lk(pending_mu_);
  pending_.push_back(PendingOp{true, id, p});
}

void SessionSource::enqueue_close(SessionId id) {
  const std::lock_guard<std::mutex> lk(pending_mu_);
  pending_.push_back(PendingOp{false, id, SessionParams{}});
}

void SessionSource::drain_pending(rt::Time now) {
  std::vector<PendingOp> ops;
  {
    const std::lock_guard<std::mutex> lk(pending_mu_);
    ops.swap(pending_);
  }
  for (PendingOp& op : ops) {
    if (op.open) {
      Sess s;
      s.params = op.params;
      const double hz = op.params.rate_hz > 0.0 ? op.params.rate_hz : 1.0;
      s.period = static_cast<rt::Time>(1e9 / hz);
      // First fire at the drain instant, then every period — the same
      // schedule ClockedSourceBase gives a per-flow source, so a per-flow
      // reference emits the same item count at any horizon.
      s.due = now;
      sessions_.emplace(op.id, s);
      wheel_.push(WheelEntry{s.due, op.id});
    } else {
      // The wheel entry stays behind and is lazily discarded when it
      // surfaces (ids are never reused, so a stale entry is unambiguous).
      sessions_.erase(op.id);
    }
  }
}

void SessionSource::prepare(rt::Time now) { drain_pending(now); }

rt::Time SessionSource::next_fire(rt::Time now) {
  drain_pending(now);
  // Discard stale wheel heads (closed sessions) so an empty engine really
  // idles at the poll cadence instead of firing on ghosts.
  while (!wheel_.empty() && sessions_.count(wheel_.top().id) == 0) {
    wheel_.pop();
  }
  // The driver protocol sleeps until exactly this instant without
  // re-evaluating on control traffic — the idle-poll bound is what keeps
  // admissions (which arrive as external queue pushes, not as wake-ups)
  // from waiting behind a far-future or empty wheel.
  const rt::Time poll = now + idle_poll_;
  if (wheel_.empty()) return poll;
  return std::min(wheel_.top().due, poll);
}

void SessionSource::cycle() {
  const rt::Time now = pipeline_now();
  std::size_t emitted = 0;
  while (!wheel_.empty() && emitted < kMaxEmitPerCycle) {
    const WheelEntry top = wheel_.top();
    if (top.due > now) break;
    wheel_.pop();
    auto it = sessions_.find(top.id);
    // Stale entry (closed session) or superseded entry (cadence changed
    // while an older due was still queued): skip without emitting.
    if (it == sessions_.end() || it->second.due != top.due) continue;
    Sess& s = it->second;
    push_next(make_session_item(scratch_, top.id, s.seq, s.due,
                                s.params.payload_bytes));
    ++items_pumped_;
    ++emitted;
    st_->emitted.fetch_add(1, std::memory_order_relaxed);
    ++s.seq;
    const double m = std::clamp(
        st_->mult[static_cast<std::size_t>(s.params.qos)].load(
            std::memory_order_relaxed),
        min_mult_, 1.0);
    // Drift-free per session: the next due advances from the scheduled
    // time, not from `now`, scaled by the class multiplier.
    s.due += static_cast<rt::Time>(static_cast<double>(s.period) / m);
    wheel_.push(WheelEntry{s.due, top.id});
  }
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
  if (!x.is_data()) return;
  const rt::Time now = pipeline_now();
  const auto id = static_cast<SessionId>(static_cast<std::uint32_t>(x.kind));
  Rec& r = recs_[id];
  digest_item(r.digest, x);
  if (r.seen > 0) {
    const auto expected =
        static_cast<std::int64_t>(x.timestamp - r.prev_due);
    const auto actual = static_cast<std::int64_t>(now - r.prev_arrival);
    st_->jitter.record(static_cast<std::uint64_t>(
        actual > expected ? actual - expected : expected - actual));
  }
  r.prev_due = x.timestamp;
  r.prev_arrival = now;
  ++r.seen;
}

std::uint64_t SessionSink::digest_of(SessionId id) const {
  auto it = recs_.find(id);
  return it == recs_.end() ? 0 : it->second.digest.h;
}

std::uint64_t SessionSink::items_of(SessionId id) const {
  auto it = recs_.find(id);
  return it == recs_.end() ? 0 : it->second.seen;
}

}  // namespace infopipe::session
