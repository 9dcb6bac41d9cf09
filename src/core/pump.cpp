#include "core/pump.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  return pull_link_();
}

void Driver::push_next(Item x) {
  if (!push_link_) throw NotWired(name() + ": push side not wired");
  push_link_(std::move(x));
}

std::size_t Driver::pull_prev_span(ItemSpan out) {
  if (!pull_span_link_) throw NotWired(name() + ": pull side has no span glue");
  return pull_span_link_(out);
}

void Driver::push_next_span(ItemSpan xs) {
  if (!push_span_link_) throw NotWired(name() + ": push side has no span glue");
  push_span_link_(xs);
}

std::size_t Driver::effective_batch(bool need_pull,
                                    bool need_push) const noexcept {
  if (max_batch_ <= 1) return 1;
  if (need_pull && !pull_span_link_) return 1;
  if (need_push && !push_span_link_) return 1;
  return max_batch_;
}

ItemSpan Driver::batch_scratch() {
  if (batch_.size() < max_batch_) batch_.resize(max_batch_);
  return ItemSpan(batch_.data(), max_batch_);
}

void Driver::note_batch(std::size_t n) {
  if (Realization* r = realization()) {
    r->obs_hooks().batch_items->record(static_cast<std::int64_t>(n));
  }
}

void Pump::cycle() {
  const std::size_t mb = effective_batch(true, true);
  if (mb <= 1) {
    Item x = pull_prev();
    if (x.is_nil() && nil_policy() == NilPolicy::kSkipCycle) return;
    observe(x);
    ++items_pumped_;
    push_next(std::move(x));
    return;
  }
  // Batched fire: drain one burst upstream, apply the nil policy exactly as
  // the per-item path would (a skipped nil is never pushed), push the rest
  // downstream in one span. EndOfStream from the pull glue propagates to
  // run_driver untouched — an EOS can end a burst but never hide inside one.
  ItemSpan scratch = batch_scratch();
  const std::size_t n = pull_prev_span(scratch.first(mb));
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scratch[i].is_nil() && nil_policy() == NilPolicy::kSkipCycle) continue;
    observe(scratch[i]);
    if (kept != i) scratch[kept] = std::move(scratch[i]);
    ++kept;
  }
  if (kept == 0) return;
  items_pumped_ += kept;
  note_batch(kept);
  push_next_span(scratch.first(kept));
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

void ActiveSource::cycle() {
  Item x = generate();
  if (x.is_eos()) throw EndOfStream{};
  if (x.is_nil() && nil_policy() == NilPolicy::kSkipCycle) return;
  observe(x);
  ++items_pumped_;
  push_next(std::move(x));
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
  const std::size_t mb = effective_batch(true, false);
  if (mb <= 1) {
    Item x = pull_prev();
    if (x.is_nil() && nil_policy() == NilPolicy::kSkipCycle) return;
    observe(x);
    ++items_pumped_;
    consume(std::move(x));
    return;
  }
  ItemSpan scratch = batch_scratch();
  const std::size_t n = pull_prev_span(scratch.first(mb));
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scratch[i].is_nil() && nil_policy() == NilPolicy::kSkipCycle) continue;
    observe(scratch[i]);
    if (kept != i) scratch[kept] = std::move(scratch[i]);
    ++kept;
  }
  if (kept == 0) return;
  items_pumped_ += kept;
  note_batch(kept);
  consume_span(scratch.first(kept));
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
