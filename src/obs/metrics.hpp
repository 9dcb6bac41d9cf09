// Structured observability: the metrics registry (ip_obs).
//
// The paper's thread-transparency claim is only auditable if the platform's
// decisions and their runtime cost are visible as *data*, not prose. This
// registry holds named counters, gauges and log2-bucket histograms that the
// runtime, the realization glue, buffers and netpipes update on their hot
// paths through handles resolved once at registration — an increment is a
// plain add, never a name lookup.
//
// Components whose hot counters already live in a cheap struct (e.g.
// rt::Runtime::Stats) publish them through a *collector*: a callback invoked
// at snapshot time that appends rows to the snapshot. That keeps the hot
// path untouched while the snapshot still sees every number.
//
// Snapshots are timestamped by the owning runtime's clock, so experiments
// under the virtual clock produce bit-identical metric trajectories run
// after run.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rt/types.hpp"

namespace infopipe::obs {

/// Monotonically increasing event count. Handles returned by the registry
/// stay valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time level (buffer fill, current rate, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  void add(double d) noexcept { v_ += d; }
  [[nodiscard]] double value() const noexcept { return v_; }

 private:
  double v_ = 0.0;
};

/// Log2-bucketed histogram of latency/jitter samples (nanoseconds by
/// convention). Bucket b holds [2^(b-1), 2^b): 0 (and anything negative)
/// in bucket 0, everything from 2^62 up in the last.
///
/// One thread writes it (the one running the measured code, e.g. the
/// owning runtime's); record() is relaxed loads and stores, no
/// lock-prefixed read-modify-write. A snapshot taken from another thread
/// reads the same atomics without a race; it may see the sample in flight
/// counted in one field and not yet in another.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t sample) noexcept {
    const auto u = static_cast<std::uint64_t>(sample < 0 ? 0 : sample);
    const auto b = static_cast<std::size_t>(
        std::min(kBuckets - 1, static_cast<int>(std::bit_width(u))));
    bump(buckets_[b], std::uint64_t{1});
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0 || sample < min_.load(std::memory_order_relaxed)) {
      min_.store(sample, std::memory_order_relaxed);
    }
    if (n == 0 || sample > max_.load(std::memory_order_relaxed)) {
      max_.store(sample, std::memory_order_relaxed);
    }
    sum_.store(sum_.load(std::memory_order_relaxed) + sample,
               std::memory_order_relaxed);
    count_.store(n + 1, std::memory_order_relaxed);
  }

  /// Adds `o`'s samples into this one. `o` may be written meanwhile by its
  /// own thread; this one must not be.
  void merge(const Histogram& o) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const noexcept {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// The upper bound (2^b) of the bucket holding the q-th sample, q in
  /// [0,1]; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

 private:
  template <typename T>
  static void bump(std::atomic<T>& a, T d) noexcept {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// One row of a snapshot: the value of a metric at snapshot time.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge level / histogram mean
  std::int64_t sum = 0;     ///< histogram only
  std::int64_t min = 0;     ///< histogram only
  std::int64_t max = 0;     ///< histogram only
  /// Histogram only: Histogram's log2 buckets up to the highest non-empty.
  std::vector<std::uint64_t> buckets;
};

/// A consistent view of every registered metric, taken at one instant of the
/// runtime clock. Collectors may append further rows.
struct MetricsSnapshot {
  rt::Time when = 0;
  std::vector<MetricValue> metrics;

  [[nodiscard]] const MetricValue* find(std::string_view name) const;

  // Appenders for collectors publishing externally-maintained values.
  void add_counter(std::string name, std::uint64_t value);
  void add_gauge(std::string name, double value);

  /// One JSON object: {"when": ..., "metrics": [{...}, ...]}.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  using TimeSource = std::function<rt::Time()>;
  using Collector = std::function<void(MetricsSnapshot&)>;
  using CollectorId = std::uint64_t;

  /// Sets where timestamps come from (the owning runtime's clock). Defaults
  /// to a constant 0 so a standalone registry still snapshots.
  void set_time_source(TimeSource fn) { now_ = std::move(fn); }
  [[nodiscard]] rt::Time now() const { return now_ ? now_() : 0; }

  /// Finds or creates. The returned reference is stable for the registry's
  /// lifetime; resolve once, increment forever. Requesting an existing name
  /// with a different kind throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a snapshot-time publisher; returns an id for removal.
  /// Collectors whose captured state dies (e.g. a Realization) MUST
  /// remove themselves before it does.
  CollectorId add_collector(Collector fn);
  void remove_collector(CollectorId id);

  /// Reads every metric and runs every collector. Pure reads of registered
  /// metrics — safe at any dispatch point.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::size_t metric_count() const noexcept {
    return order_.size();
  }

 private:
  struct Entry {
    MetricValue::Kind kind;
    Counter* c = nullptr;
    Gauge* g = nullptr;
    Histogram* h = nullptr;
  };

  TimeSource now_;
  // Node-based containers: handles stay valid as the registry grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Entry> by_name_;
  std::vector<std::pair<std::string, Entry>> order_;  // registration order
  std::vector<std::pair<CollectorId, Collector>> collectors_;
  CollectorId next_collector_ = 1;
};

}  // namespace infopipe::obs
