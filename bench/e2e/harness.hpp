// Shared machinery of the end-to-end benchmark (bench_e2e): command line,
// clocks, the log-linear latency histogram, the span book behind --trace,
// the boundary probes, the open-loop generator pump, process and layer
// counters, and the result record every workload fills in.
//
// Everything here observes the platform from OUTSIDE: it calls public
// functions, reads public stats, and inserts ordinary function-style
// components at layer boundaries. Nothing in src/ knows it is measured.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/infopipes.hpp"
#include "shard/shard_group.hpp"

namespace e2e {

using Ns = std::int64_t;

/// The one clock of the benchmark: steady_clock in nanoseconds. Every
/// shard thread reads the same monotonic clock, so stamps taken on
/// different shards are directly comparable.
inline Ns now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of one run, all phases together
  bool trace = false;
  bool smoke = false;  ///< about one second per workload, every check on
  std::string out_dir = "out";
  std::string commit = "unknown";
};

/// How one run spends its --seconds: an open-loop phase of `open_s`
/// seconds, then `setups` short-lived instances of it that time set-up,
/// then a closed-loop warm-up repetition that also sizes the timed ones,
/// then `reps` closed-loop repetitions of about `rep_s` seconds. A traced
/// run halves both loops: one half untraced, one half with probes, so the
/// difference is the tracing overhead.
struct Budget {
  double rep_s = 1.0;
  int reps = 9;
  double open_s = 10.0;
  int setups = 15;
};
[[nodiscard]] Budget plan_budget(const Args& a);

/// splitmix64 — the seed expands into every generated input through this.
inline std::uint64_t splitmix64(std::uint64_t& s) noexcept {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the stream.
inline double unit(std::uint64_t& s) noexcept {
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
}

/// Log-linear histogram of non-negative nanosecond values: 64 linear
/// sub-buckets per power of two, so every bucket is at most 1/64 (< 2%) of
/// its values wide. Not thread-safe: each recording thread owns one and
/// they merge at the end.
class LogHistogram {
 public:
  void record(Ns v) noexcept;
  void merge(const LogHistogram& o) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// Value at quantile q in [0, 1] (nanoseconds), interpolated linearly
  /// inside its bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;
  static int bucket_of(std::uint64_t v) noexcept;
  /// Lowest value of bucket b and its width.
  static double low_of(int b) noexcept;
  static double width_of(int b) noexcept;

  std::array<std::uint64_t, kBuckets> b_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

[[nodiscard]] double median(std::vector<double> v);

/// Length of the windows the open loop is read in.
constexpr Ns kWindow = 500'000'000;

/// Open-loop latency, one LogHistogram per window of due time. A quantile
/// is read per window and the median over the full windows is reported, so
/// a stall of the shared host spoils one window instead of the whole run.
class WindowedLatency {
 public:
  /// `at` is the item's due time relative to the start of measurement.
  void record(Ns at, Ns latency);
  void merge(const WindowedLatency& o);
  [[nodiscard]] std::uint64_t count() const noexcept;
  /// Median over windows holding at least half the samples of the fullest
  /// one (drops partial first and last windows) of each window's quantile,
  /// in nanoseconds; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// One line per window: samples, p50, p99 (us).
  void print() const;

 private:
  std::deque<LogHistogram> w_;
};

// ---- the span book (--trace) ------------------------------------------------

/// Preallocated span storage. Every 64th item (by its trace key — the seq,
/// or session id + seq) gets one row of boundary timestamps; each probe the
/// item passes writes its column. Boundary 0 is the item's due time and the
/// last boundary its arrival at the sink, so the spans between consecutive
/// boundaries partition the item's end-to-end latency exactly: span i is
/// named spans[i] ("layer.what") and its parent is the item's "e2e" span.
/// Rows are written by whichever thread hosts the boundary and read only
/// after every such thread has been joined.
class TraceBook {
 public:
  static constexpr std::uint64_t kEvery = 64;

  /// Rows are indexed by seq / 64, or handed out by claim_row() for items
  /// whose key is not a dense seq (sessions).
  TraceBook(std::vector<std::string> spans, std::size_t rows);

  [[nodiscard]] static bool sampled(std::uint64_t key) noexcept {
    return key % kEvery == 0;
  }
  [[nodiscard]] int boundaries() const noexcept { return nb_; }
  /// Rows beyond capacity are dropped.
  void mark(std::uint64_t row, int boundary, Ns t) noexcept {
    if (row < rows_) t_[row * static_cast<std::size_t>(nb_) + boundary] = t;
  }
  /// Next free row, named after the item (session id, seq) it records.
  [[nodiscard]] std::uint64_t claim_row(std::uint64_t session,
                                        std::uint64_t seq) noexcept {
    const std::uint64_t row = next_row_.fetch_add(1, std::memory_order_relaxed);
    if (row < rows_) {
      ids_[2 * row] = session;
      ids_[2 * row + 1] = seq;
    }
    return row;
  }

  struct Summary {
    std::uint64_t items = 0;       ///< complete, monotonic rows
    std::uint64_t incomplete = 0;  ///< rows with a missing boundary
    LogHistogram e2e;
    /// Per span name: the item's total time in spans of that name.
    std::vector<std::pair<std::string, LogHistogram>> by_span;
    /// Per layer (span-name prefix): the item's self time in that layer.
    std::vector<std::pair<std::string, LogHistogram>> by_layer;
    double self_sum_ns = 0.0;  ///< over all items: sum of layer self times
    double e2e_sum_ns = 0.0;   ///< over all items: sum of e2e spans

    [[nodiscard]] const LogHistogram* span(const std::string& name) const;
    [[nodiscard]] const LogHistogram* layer(const std::string& name) const;
  };
  [[nodiscard]] Summary summarize() const;

  /// Writes the first `max_items` complete rows as JSON lines, one span
  /// per line: {"id","name","start","end","parent"}, times in ns since the
  /// first written item's due time.
  void write_jsonl(const std::string& path, std::size_t max_items) const;

 private:
  [[nodiscard]] bool complete(std::size_t row) const noexcept;

  std::vector<std::string> spans_;
  int nb_;
  std::size_t rows_;
  std::vector<Ns> t_;
  std::vector<std::uint64_t> ids_;  ///< (session, seq) of claimed rows
  std::atomic<std::uint64_t> next_row_{0};
};

/// A bench-owned function-style component that stamps one boundary of the
/// span book for the sampled items passing through it. Function style is
/// direct in both push and pull mode, so inserting probes never changes the
/// plan's thread allocation (each workload asserts that).
class Probe final : public infopipe::FunctionComponent {
 public:
  Probe(std::string name, TraceBook& book, int boundary)
      : FunctionComponent(std::move(name)), book_(&book), boundary_(boundary) {}

 protected:
  infopipe::Item convert(infopipe::Item x) override {
    stamp(x);
    return x;
  }
  void convert_span(infopipe::ItemSpan xs) override {
    for (const infopipe::Item& x : xs) {
      if (x.is_data()) stamp(x);
    }
  }

 private:
  void stamp(const infopipe::Item& x) noexcept {
    if (TraceBook::sampled(x.seq)) {
      book_->mark(x.seq / TraceBook::kEvery, boundary_, now_ns());
    }
  }

  TraceBook* book_;
  int boundary_;
};

/// The open-loop load generator: a pump firing every 1 ms and draining
/// `burst` items per fire from its source. Item k is due at
/// t0 + floor(k / burst) * 1 ms, where t0 is the pump's first fire
/// (taken in prepare(), converted to the bench clock). Unlike ClockedPump,
/// which re-anchors its schedule after a stall and so would carry every
/// stall into all later items, a late generator catches up: it fires
/// back to back until it is on schedule again, and the lateness counts
/// against the items that were due meanwhile.
class GenPump final : public infopipe::Pump {
 public:
  static constexpr Ns kTick = 1'000'000;

  explicit GenPump(std::size_t burst);

  /// Ticks of an open loop of `ticks` that are warm-up: the first 10%, at
  /// least 100 ms. Their items are not measured.
  [[nodiscard]] static std::uint64_t warmup_ticks(std::uint64_t ticks) {
    return std::max<std::uint64_t>(ticks / 10, 100);
  }

  [[nodiscard]] std::size_t burst() const noexcept { return burst_; }
  [[nodiscard]] Ns t0() const noexcept {
    return t0_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Ns due(std::uint64_t seq) const noexcept {
    return t0() + static_cast<Ns>(seq / burst_) * kTick;
  }
  [[nodiscard]] std::optional<infopipe::rt::Time> nominal_period()
      const override {
    return kTick;
  }

 protected:
  void prepare(infopipe::rt::Time now) override;
  [[nodiscard]] infopipe::rt::Time next_fire(infopipe::rt::Time) override {
    const infopipe::rt::Time fire = next_;
    next_ += kTick;
    return fire;
  }

 private:
  std::size_t burst_;
  infopipe::rt::Time next_ = 0;
  std::atomic<Ns> t0_{0};
};

/// Pins the calling thread to one CPU (best effort). The bench thread sits
/// on the last CPU, away from the shard threads, which pin themselves to
/// CPUs 0 and 1.
void pin_to_cpu(int cpu);

// ---- process counters -------------------------------------------------------

/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_s();

/// Process CPU per delivered item, read once per window from `begin_at`
/// on by a thread that sleeps between reads (so it is not a busy thread).
/// Like WindowedLatency it reports the median over full windows. The
/// `delivered` counter is read on that thread.
class CpuMeter {
 public:
  CpuMeter(std::function<std::uint64_t()> delivered, Ns begin_at);
  ~CpuMeter() { stop(); }
  CpuMeter(const CpuMeter&) = delete;
  CpuMeter& operator=(const CpuMeter&) = delete;

  /// Takes the last reading and joins the thread; idempotent.
  void stop();
  /// Median over windows of CPU microseconds per item (call after
  /// stop()).
  [[nodiscard]] double us_per_item() const;

 private:
  struct Read {
    double cpu_s;
    std::uint64_t items;
  };
  void sample();

  std::function<std::uint64_t()> delivered_;
  std::vector<Read> reads_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;
};

/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set (VmHWM) of the process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// syscr + syscw from /proc/self/io (read- and write-family syscalls).
[[nodiscard]] std::uint64_t io_syscalls();

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---- layer counters ---------------------------------------------------------

/// rt and mem counters per delivered item, summed over `runtimes`, and
/// their pools' slab footprint. Their threads must have stopped.
[[nodiscard]] std::vector<Metric> runtime_counters(
    std::initializer_list<infopipe::rt::Runtime*> runtimes,
    std::uint64_t items);

/// Buffer put and take blocks per delivered item, over every buffer.
[[nodiscard]] std::vector<Metric> buffer_blocks(
    std::initializer_list<infopipe::StatsSnapshot> snapshots,
    std::uint64_t items);

/// Each shard thread's CPU time and the group's timer wakeups, read on the
/// running shards themselves.
struct ShardSample {
  Ns at = 0;
  std::array<double, 2> cpu_s{};
  std::uint64_t timer_wakeups = 0;
};
[[nodiscard]] ShardSample sample_shards(infopipe::shard::ShardGroup& group);
/// rt.timer_wakeups_per_s and rt.busy_frac.shard<i> between two samples.
[[nodiscard]] std::vector<Metric> shard_rates(const ShardSample& before,
                                              const ShardSample& after);

class Result {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// A number printed with the metrics but left out of the JSON result.
  void note(std::string name, double value, std::string unit) {
    notes_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (beyond per-item failures).
  void error(std::string why) { errors_.push_back(std::move(why)); }

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Metric>& notes() const noexcept {
    return notes_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  [[nodiscard]] bool correct() const noexcept {
    return failed == 0 && errors_.empty() && attempted > 0;
  }

  std::uint64_t attempted = 0;  ///< items offered to the system
  std::uint64_t failed = 0;     ///< attempted items not delivered intact

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> errors_;
};

/// One JSON object describing where the numbers came from: CPUs, governor,
/// build, compiler, commit, and every InfopipeConfig knob.
[[nodiscard]] std::string host_json(const Args& a);

/// Sleeps the calling (bench) thread in `step` increments until `pred()`
/// holds or `timeout_s` passes; returns pred(). The default step is coarse
/// on purpose: what is timed is stamped where it happens, and a sleeping
/// bench thread leaves its CPU to the I/O pollers.
template <typename Pred>
bool wait_for(Pred pred, double timeout_s,
              std::chrono::microseconds step = std::chrono::milliseconds(1)) {
  const Ns deadline = now_ns() + static_cast<Ns>(timeout_s * 1e9);
  while (!pred()) {
    if (now_ns() >= deadline) return pred();
    std::this_thread::sleep_for(step);
  }
  return true;
}

}  // namespace e2e
