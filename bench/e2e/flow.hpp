// Seeded byte payloads and the source/sink pair that makes and checks them,
// shared by the coroutine_chain and shard_cut workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace e2e {

/// Boundaries every generated item starts with in the span book: its due
/// time, then the source's generate() entry and exit (the payload make).
enum SourceBoundary : int { kDue = 0, kGenStart = 1, kGenEnd = 2 };

/// Seeded random bytes: item k's payload is a `bytes`-long window into one
/// pool, at a window chosen from k. Window checksums are precomputed, so
/// the sink verifies every payload in one pass over its bytes.
class PayloadBank {
 public:
  PayloadBank(std::uint64_t seed, std::size_t bytes);

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const std::uint8_t* window(std::uint64_t k) const noexcept {
    return pool_.data() + 8 * slot(k);
  }
  [[nodiscard]] std::uint64_t checksum(std::uint64_t k) const noexcept {
    return sums_[slot(k)];
  }
  /// Order-sensitive enough to tell neighbouring windows apart, and cheap
  /// (word adds and xors the compiler vectorizes).
  [[nodiscard]] static std::uint64_t sum(const std::uint8_t* p,
                                         std::size_t n) noexcept;

 private:
  static constexpr std::size_t kWindows = 4096;
  [[nodiscard]] static std::size_t slot(std::uint64_t k) noexcept {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> 52);
  }

  std::size_t bytes_;
  std::vector<std::uint8_t> pool_;
  std::vector<std::uint64_t> sums_;
};

/// Passive source of `count` pooled byte items (seq 0..count-1), then EOS.
/// With a book, sampled items stamp kGenStart/kGenEnd around the make.
class PayloadSource final : public infopipe::PassiveSource {
 public:
  PayloadSource(const PayloadBank& bank, std::uint64_t count,
                TraceBook* book = nullptr)
      : PassiveSource("src"), bank_(&bank), count_(count), book_(book) {}

  /// Ends the stream at the first generate() at or after `t` (the warm-up
  /// repetition, which sizes the timed ones by what it delivered).
  void set_deadline(Ns t) noexcept { deadline_ = t; }
  [[nodiscard]] std::uint64_t produced() const noexcept { return next_; }

  /// While held, generate() sleeps its pump in 20 us steps instead of
  /// producing. A sharded start() waits until every shard has dispatched
  /// the start event, which a free-running pump that never blocks delays
  /// until the flow ends; holding the source keeps start() a set-up cost
  /// and the flow inside the timed window.
  void hold() noexcept { held_.store(true, std::memory_order_release); }
  void release() noexcept { held_.store(false, std::memory_order_release); }

 protected:
  infopipe::Item generate() override;

 private:
  const PayloadBank* bank_;
  std::uint64_t count_;
  TraceBook* book_;
  Ns deadline_ = 0;
  std::uint64_t next_ = 0;
  std::atomic<bool> held_{false};
};

/// Passive sink that checks every item — in seq order, right size, right
/// checksum — and, when fed by a GenPump, records its latency from the due
/// time. ok() counts items delivered intact.
class PayloadSink final : public infopipe::PassiveSink {
 public:
  PayloadSink(const PayloadBank& bank, const GenPump* gen,
              TraceBook* book = nullptr)
      : PassiveSink("sink"), bank_(&bank), gen_(gen), book_(book) {}

  /// Latency samples only from item `seq` on (the warm-up cut).
  void measure_from(std::uint64_t seq) noexcept { measure_from_ = seq; }

  [[nodiscard]] bool eos() const noexcept {
    return eos_.load(std::memory_order_acquire);
  }
  /// Bench-clock instant EOS arrived (valid once eos()).
  [[nodiscard]] Ns eos_at() const noexcept { return eos_at_; }
  /// Safe to read from any thread while the flow runs.
  [[nodiscard]] std::uint64_t ok() const noexcept {
    return ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const WindowedLatency& latency() const noexcept {
    return lat_;
  }

 protected:
  void consume(infopipe::Item x) override { check(x, now_ns()); }
  void consume_span(infopipe::ItemSpan xs) override;
  void on_eos() override {
    eos_at_ = now_ns();
    eos_.store(true, std::memory_order_release);
  }

 private:
  void check(const infopipe::Item& x, Ns t) noexcept;

  const PayloadBank* bank_;
  const GenPump* gen_;
  TraceBook* book_;
  std::uint64_t measure_from_ = 0;
  std::uint64_t expect_ = 0;
  std::atomic<std::uint64_t> ok_{0};
  WindowedLatency lat_;
  Ns eos_at_ = 0;
  std::atomic<bool> eos_{false};
};

}  // namespace e2e
