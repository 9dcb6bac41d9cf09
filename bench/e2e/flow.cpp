#include "flow.hpp"

#include <algorithm>
#include <cstring>

#include "core/realization.hpp"

namespace e2e {

using infopipe::Item;

PayloadBank::PayloadBank(std::uint64_t seed, std::size_t bytes)
    : bytes_(bytes), pool_(bytes + 8 * kWindows), sums_(kWindows) {
  std::uint64_t s = seed ^ 0x5EEDB0A7ull;
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t w = splitmix64(s);
    std::memcpy(pool_.data() + i, &w,
                std::min<std::size_t>(8, pool_.size() - i));
  }
  for (std::size_t k = 0; k < kWindows; ++k) {
    sums_[k] = sum(pool_.data() + 8 * k, bytes_);
  }
}

std::uint64_t PayloadBank::sum(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t add = n;
  std::uint64_t x = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    add += w;
    x ^= w;
  }
  for (; i < n; ++i) add += static_cast<std::uint64_t>(p[i]) << (i % 8 * 8);
  return add ^ (x * 0x9E3779B97F4A7C15ull);
}

Item PayloadSource::generate() {
  while (held_.load(std::memory_order_acquire)) {
    realization()->runtime().sleep_for(infopipe::rt::microseconds(20));
  }
  if (next_ >= count_ || (deadline_ != 0 && now_ns() >= deadline_)) {
    return Item::eos();
  }
  const std::uint64_t k = next_++;
  const bool traced = book_ != nullptr && TraceBook::sampled(k);
  const Ns t0 = traced ? now_ns() : 0;
  Item x = Item::of_bytes(bank_->window(k), bank_->bytes());
  x.seq = k;
  if (traced) {
    book_->mark(k / TraceBook::kEvery, kGenStart, t0);
    book_->mark(k / TraceBook::kEvery, kGenEnd, now_ns());
  }
  return x;
}

void PayloadSink::consume_span(infopipe::ItemSpan xs) {
  const Ns t = now_ns();  // a burst arrives at once
  for (const Item& x : xs) {
    if (x.is_eos()) {
      on_eos();
    } else if (x.is_data()) {
      check(x, t);
    }
  }
}

void PayloadSink::check(const Item& x, Ns t) noexcept {
  const std::uint8_t* p = x.bytes_data();
  if (x.seq == expect_ && p != nullptr && x.bytes_size() == bank_->bytes() &&
      PayloadBank::sum(p, x.bytes_size()) == bank_->checksum(x.seq)) {
    ok_.store(ok_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);  // one writer
  }
  expect_ = x.seq + 1;
  if (gen_ == nullptr) return;
  const Ns due = gen_->due(x.seq);
  if (x.seq >= measure_from_) lat_.record(due - gen_->t0(), t - due);
  if (book_ != nullptr && TraceBook::sampled(x.seq)) {
    const std::uint64_t row = x.seq / TraceBook::kEvery;
    book_->mark(row, kDue, due);
    book_->mark(row, book_->boundaries() - 1, t);
  }
}

}  // namespace e2e
