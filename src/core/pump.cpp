#include "core/pump.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/buffer.hpp"
#include "core/realization.hpp"

namespace infopipe {

namespace {
rt::Time period_from_rate(double rate_hz) {
  if (!(rate_hz > 0.0)) {
    throw std::invalid_argument("pump rate must be positive");
  }
  return static_cast<rt::Time>(std::llround(1e9 / rate_hz));
}
}  // namespace

Item Driver::pull_prev() {
  if (!pull_link_) throw NotWired(name() + ": pull side not wired");
  Item x;
  (void)pull_link_(ItemSpan(&x, 1));
  return x;
}

void Driver::push_next(Item x) { push_next_span(ItemSpan(&x, 1)); }

void Driver::push_next_span(ItemSpan xs) {
  if (!push_link_) throw NotWired(name() + ": push side not wired");
  push_link_(xs);
}

ItemSpan Driver::pull_burst() {
  if (!pull_link_) throw NotWired(name() + ": pull side not wired");
  const std::size_t room = burst_room();
  if (batch_.size() < room) batch_.resize(room);
  ItemSpan scratch(batch_.data(), room);
  return admit(scratch.first(pull_link_(scratch)));
}

ItemSpan Driver::admit(ItemSpan xs) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].is_nil() && nil_policy_ == NilPolicy::kSkipCycle) continue;
    observe(xs[i]);
    if (kept != i) xs[kept] = std::move(xs[i]);
    ++kept;
  }
  if (kept == 0) return {};
  items_pumped_ += kept;
  if (Realization* r = realization()) {
    r->obs_hooks().batch_items->record(static_cast<std::int64_t>(kept));
  }
  return xs.first(kept);
}

void Pump::cycle() {
  const ItemSpan xs = pull_burst();
  if (!xs.empty()) push_next_span(xs);
}

ClockedPump::ClockedPump(std::string name, double rate_hz,
                         rt::Priority priority)
    : Pump(std::move(name), priority),
      rate_hz_(rate_hz),
      period_(period_from_rate(rate_hz)) {}

ClockedPump::ClockedPump(const PumpSpec& spec)
    : Pump(spec),
      rate_hz_(spec.rate_hz),
      period_(period_from_rate(spec.rate_hz)) {}

void ClockedPump::prepare(rt::Time now) { next_ = now; }

rt::Time ClockedPump::next_fire(rt::Time now) {
  const rt::Time fire = next_;
  next_ += period_;
  // If we have fallen behind (long stall), re-anchor instead of firing a
  // burst of catch-up cycles.
  if (next_ < now) next_ = now + period_;
  return fire;
}

FreeRunningPump::FreeRunningPump(std::string name, rt::Priority priority)
    : Pump(std::move(name), priority) {}

std::size_t FreeRunningPump::burst_room() {
  if (max_batch() != 0) return max_batch();
  Buffer* b = downstream_buffer();
  if (b == nullptr) return kBurstCap;
  const std::size_t space = b->await_space(realization()->current_host());
  return std::clamp<std::size_t>(space, 1, kBurstCap);
}

AdaptivePump::AdaptivePump(std::string name, double initial_rate_hz,
                           rt::Priority priority)
    : Pump(std::move(name), priority), rate_hz_(initial_rate_hz) {
  (void)period_from_rate(initial_rate_hz);  // validate
}

AdaptivePump::AdaptivePump(const PumpSpec& spec)
    : Pump(spec), rate_hz_(spec.rate_hz) {
  (void)period_from_rate(spec.rate_hz);  // validate
}

void AdaptivePump::set_rate(double rate_hz) {
  (void)period_from_rate(rate_hz);  // validate
  rate_hz_ = rate_hz;
}

void AdaptivePump::handle_event(const Event& e) {
  if (e.type == kEventQualityHint) {
    if (const double* r = e.get<double>()) set_rate(*r);
  }
}

void AdaptivePump::prepare(rt::Time now) {
  last_fire_ = now;
  first_ = true;
}

rt::Time AdaptivePump::next_fire(rt::Time now) {
  if (first_) {
    first_ = false;
    last_fire_ = now;
    return now;
  }
  // Rate may change between cycles; pace relative to the last fire so a new
  // rate takes effect immediately.
  const rt::Time fire = last_fire_ + period_from_rate(rate_hz_);
  last_fire_ = std::max(fire, now);
  return fire;
}

Item ActiveSource::generate() {
  throw std::logic_error(name() + ": override generate() or generate_span()");
}

ItemSpan ActiveSource::generate_span() {
  one_ = generate();
  return ItemSpan(&one_, 1);
}

void ActiveSource::cycle() {
  const ItemSpan xs = generate_span();
  const auto eos = std::find_if(xs.begin(), xs.end(),
                                [](const Item& x) { return x.is_eos(); });
  const ItemSpan kept = admit(xs.first(eos - xs.begin()));
  if (!kept.empty()) push_next_span(kept);
  if (eos != xs.end()) throw EndOfStream{};
}

ClockedSourceBase::ClockedSourceBase(std::string name, double rate_hz,
                                     rt::Priority priority)
    : ActiveSource(std::move(name), priority),
      rate_hz_(rate_hz),
      period_(period_from_rate(rate_hz)) {}

void ClockedSourceBase::prepare(rt::Time now) { next_ = now; }

rt::Time ClockedSourceBase::next_fire(rt::Time now) {
  const rt::Time fire = next_;
  next_ += period_;
  if (next_ < now) next_ = now + period_;
  return fire;
}

void ActiveSink::cycle() {
  const ItemSpan xs = pull_burst();
  if (!xs.empty()) consume_span(xs);
}

ClockedSinkBase::ClockedSinkBase(std::string name, double rate_hz,
                                 rt::Priority priority)
    : ActiveSink(std::move(name), priority),
      rate_hz_(rate_hz),
      period_(period_from_rate(rate_hz)) {}

void ClockedSinkBase::prepare(rt::Time now) { next_ = now; }

rt::Time ClockedSinkBase::next_fire(rt::Time now) {
  const rt::Time fire = next_;
  next_ += period_;
  if (next_ < now) next_ = now + period_;
  return fire;
}

}  // namespace infopipe
