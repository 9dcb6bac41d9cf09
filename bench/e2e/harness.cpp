#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/config.hpp"
#include "core/realization.hpp"

namespace e2e {

Budget plan_budget(const Args& a) {
  Budget b;
  if (a.smoke) {
    b.rep_s = 0.1;
    b.reps = 1;
    b.open_s = 0.4;
    b.setups = 1;
    return b;
  }
  // The open loop takes 60% of the run and ten closed-loop repetitions
  // (one warm-up) 30%; the set-ups take about the rest. Many short
  // repetitions rather than a few long ones: a slow spell of the shared
  // host then spoils a minority of them, which the median ignores. A
  // traced run does five timed repetitions and an open loop twice:
  // untraced, then traced; it reports no set-up.
  b.rep_s = 0.03 * a.seconds;
  if (a.trace) {
    b.reps = 5;
    b.open_s = (a.seconds - 11 * b.rep_s) / 2;
    b.setups = 0;
  } else {
    b.reps = 9;
    b.open_s = 0.6 * a.seconds;
    b.setups = 15;
  }
  return b;
}

// ---- LogHistogram -----------------------------------------------------------

int LogHistogram::bucket_of(std::uint64_t v) noexcept {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
  const int e = 63 - std::countl_zero(v);  // >= kSubBits
  const int shift = e - kSubBits;
  const auto sub = static_cast<int>(v >> shift) - kSub;
  return (shift + 1) * kSub + sub;
}

double LogHistogram::low_of(int b) noexcept {
  if (b < kSub) return b;
  return std::ldexp(static_cast<double>(kSub + b % kSub), b / kSub - 1);
}

double LogHistogram::width_of(int b) noexcept {
  return b < kSub ? 1.0 : std::ldexp(1.0, b / kSub - 1);
}

void LogHistogram::record(Ns v) noexcept {
  const std::uint64_t u = v < 0 ? 0 : static_cast<std::uint64_t>(v);
  ++b_[static_cast<std::size_t>(bucket_of(u))];
  ++n_;
  sum_ += static_cast<double>(u);
}

void LogHistogram::merge(const LogHistogram& o) noexcept {
  for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
  n_ += o.n_;
  sum_ += o.sum_;
}

double LogHistogram::quantile(double q) const noexcept {
  if (n_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = b_[static_cast<std::size_t>(i)];
    if (c != 0 && static_cast<double>(seen + c) >= rank) {
      // The bucket's samples are taken as spread evenly over its width.
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(c);
      return low_of(i) + std::max(within, 0.0) * width_of(i);
    }
    seen += c;
  }
  return low_of(kBuckets - 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

void WindowedLatency::record(Ns at, Ns latency) {
  const auto i = static_cast<std::size_t>(std::max<Ns>(at, 0) / kWindow);
  if (i >= w_.size()) w_.resize(i + 1);
  w_[i].record(latency);
}

void WindowedLatency::merge(const WindowedLatency& o) {
  if (o.w_.size() > w_.size()) w_.resize(o.w_.size());
  for (std::size_t i = 0; i < o.w_.size(); ++i) w_[i].merge(o.w_[i]);
}

std::uint64_t WindowedLatency::count() const noexcept {
  std::uint64_t n = 0;
  for (const LogHistogram& h : w_) n += h.count();
  return n;
}

double WindowedLatency::quantile(double q) const {
  std::uint64_t fullest = 0;
  for (const LogHistogram& h : w_) fullest = std::max(fullest, h.count());
  std::vector<double> per_window;
  for (const LogHistogram& h : w_) {
    if (h.count() > 0 && 2 * h.count() >= fullest) {
      per_window.push_back(h.quantile(q));
    }
  }
  return median(std::move(per_window));
}

void WindowedLatency::print() const {
  for (std::size_t i = 0; i < w_.size(); ++i) {
    std::printf("  window %2zu: %8llu samples  p50 %9.1f us  p99 %9.1f us\n",
                i, static_cast<unsigned long long>(w_[i].count()),
                w_[i].quantile(0.50) / 1e3, w_[i].quantile(0.99) / 1e3);
  }
}

// ---- CpuMeter ---------------------------------------------------------------

CpuMeter::CpuMeter(std::function<std::uint64_t()> delivered, Ns begin_at)
    : delivered_(std::move(delivered)) {
  thread_ = std::thread([this, begin_at] {
    const auto at = [](Ns t) {
      return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t));
    };
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_until(lk, at(begin_at), [this] { return stop_; })) return;
    for (Ns next = begin_at;; next += kWindow) {
      sample();
      if (cv_.wait_until(lk, at(next + kWindow), [this] { return stop_; })) {
        sample();
        return;
      }
    }
  });
}

void CpuMeter::sample() {
  reads_.push_back(Read{process_cpu_s(), delivered_()});
}

void CpuMeter::stop() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double CpuMeter::us_per_item() const {
  std::uint64_t fullest = 0;
  for (std::size_t i = 1; i < reads_.size(); ++i) {
    fullest = std::max(fullest, reads_[i].items - reads_[i - 1].items);
  }
  std::vector<double> per_window;
  for (std::size_t i = 1; i < reads_.size(); ++i) {
    const Read& a = reads_[i - 1];
    const Read& b = reads_[i];
    const std::uint64_t n = b.items - a.items;
    if (n > 0 && 2 * n >= fullest) {
      per_window.push_back((b.cpu_s - a.cpu_s) * 1e6 /
                           static_cast<double>(n));
    }
  }
  return median(std::move(per_window));
}

// ---- TraceBook --------------------------------------------------------------

TraceBook::TraceBook(std::vector<std::string> spans, std::size_t rows)
    : spans_(std::move(spans)),
      nb_(static_cast<int>(spans_.size()) + 1),
      rows_(rows),
      t_(rows * static_cast<std::size_t>(nb_), 0),
      ids_(2 * rows, 0) {}

bool TraceBook::complete(std::size_t row) const noexcept {
  const Ns* r = &t_[row * static_cast<std::size_t>(nb_)];
  for (int i = 0; i < nb_; ++i) {
    if (r[i] == 0 || (i > 0 && r[i] < r[i - 1])) return false;
  }
  return true;
}

const LogHistogram* TraceBook::Summary::span(const std::string& name) const {
  for (const auto& [n, h] : by_span) {
    if (n == name) return &h;
  }
  return nullptr;
}

const LogHistogram* TraceBook::Summary::layer(const std::string& name) const {
  for (const auto& [n, h] : by_layer) {
    if (n == name) return &h;
  }
  return nullptr;
}

TraceBook::Summary TraceBook::summarize() const {
  Summary s;
  // Index span names and layers (the prefix before the first '.').
  std::vector<std::size_t> name_of(spans_.size());
  std::vector<std::size_t> layer_of(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i];
    const std::string layer = n.substr(0, n.find('.'));
    auto find_or_add = [](auto& v, const std::string& key) {
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (v[j].first == key) return j;
      }
      v.emplace_back(key, LogHistogram{});
      return v.size() - 1;
    };
    name_of[i] = find_or_add(s.by_span, n);
    layer_of[i] = find_or_add(s.by_layer, layer);
  }
  std::vector<Ns> per_name(s.by_span.size());
  std::vector<Ns> per_layer(s.by_layer.size());
  for (std::size_t row = 0; row < rows_; ++row) {
    const Ns* r = &t_[row * static_cast<std::size_t>(nb_)];
    if (!complete(row)) {
      if (std::any_of(r, r + nb_, [](Ns v) { return v != 0; })) {
        ++s.incomplete;
      }
      continue;
    }
    std::fill(per_name.begin(), per_name.end(), 0);
    std::fill(per_layer.begin(), per_layer.end(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Ns d = r[i + 1] - r[i];
      per_name[name_of[i]] += d;
      per_layer[layer_of[i]] += d;
    }
    for (std::size_t j = 0; j < per_name.size(); ++j) {
      s.by_span[j].second.record(per_name[j]);
    }
    for (std::size_t j = 0; j < per_layer.size(); ++j) {
      s.by_layer[j].second.record(per_layer[j]);
      s.self_sum_ns += static_cast<double>(per_layer[j]);
    }
    const Ns e2e = r[nb_ - 1] - r[0];
    s.e2e.record(e2e);
    s.e2e_sum_ns += static_cast<double>(e2e);
    ++s.items;
  }
  return s;
}

void TraceBook::write_jsonl(const std::string& path,
                            std::size_t max_items) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return;
  }
  const bool claimed = next_row_.load(std::memory_order_relaxed) > 0;
  Ns origin = 0;
  std::size_t written = 0;
  for (std::size_t row = 0; row < rows_ && written < max_items; ++row) {
    if (!complete(row)) continue;
    const Ns* r = &t_[row * static_cast<std::size_t>(nb_)];
    if (written == 0) origin = r[0];
    const std::string id =
        !claimed ? std::to_string(row * kEvery)
                     : std::to_string(ids_[2 * row]) + ":" +
                           std::to_string(ids_[2 * row + 1]);
    std::fprintf(f,
                 "{\"id\":\"%s\",\"name\":\"e2e\",\"start\":%lld,\"end\":%lld,"
                 "\"parent\":null}\n",
                 id.c_str(), static_cast<long long>(r[0] - origin),
                 static_cast<long long>(r[nb_ - 1] - origin));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(f,
                   "{\"id\":\"%s\",\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                   "\"parent\":\"e2e\"}\n",
                   id.c_str(), spans_[i].c_str(),
                   static_cast<long long>(r[i] - origin),
                   static_cast<long long>(r[i + 1] - origin));
    }
    ++written;
  }
  std::fclose(f);
}

// ---- GenPump ----------------------------------------------------------------

GenPump::GenPump(std::size_t burst)
    : Pump(infopipe::PumpSpec{.name = "gen",
                              .priority = infopipe::rt::kPriorityTimer,
                              .max_batch = burst}),
      burst_(burst) {}

void GenPump::prepare(infopipe::rt::Time now) {
  next_ = now;
  // `now` is on the hosting runtime's clock; shift it onto the bench clock.
  const infopipe::rt::Time rt_now = realization()->runtime().now();
  t0_.store(now_ns() - (rt_now - now), std::memory_order_release);
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---- process counters -------------------------------------------------------

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: the latter survives exec, so it would report the
  // launching process's footprint whenever that is larger.
  std::ifstream in("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> kib;
      break;
    }
    in.ignore(1 << 20, '\n');
  }
  return kib / 1024.0;
}

std::uint64_t io_syscalls() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t v = 0;
  std::uint64_t total = 0;
  while (in >> key >> v) {
    if (key == "syscr:" || key == "syscw:") total += v;
  }
  return total;
}

// ---- layer counters ---------------------------------------------------------

std::vector<Metric> runtime_counters(
    std::initializer_list<infopipe::rt::Runtime*> runtimes,
    std::uint64_t items) {
  const double n = static_cast<double>(std::max<std::uint64_t>(items, 1));
  double switches = 0.0;
  double dispatches = 0.0;
  double misses = 0.0;
  double foreign = 0.0;
  double slab = 0.0;
  for (infopipe::rt::Runtime* r : runtimes) {
    const auto& st = r->stats();
    switches += static_cast<double>(st.context_switches);
    dispatches += static_cast<double>(st.dispatches);
    const infopipe::mem::Pool::Stats ps = r->pool().stats();
    misses += static_cast<double>(ps.misses);
    foreign += static_cast<double>(ps.foreign_returned + ps.foreign_adopted);
    slab += static_cast<double>(ps.slab_bytes);
  }
  return {{"rt.switches_per_item", switches / n, ""},
          {"rt.dispatches_per_item", dispatches / n, ""},
          {"mem.miss_per_item", misses / n, ""},
          {"mem.foreign_per_item", foreign / n, ""},
          {"mem.slab_mb", slab / (1 << 20), ""}};
}

std::vector<Metric> buffer_blocks(
    std::initializer_list<infopipe::StatsSnapshot> snapshots,
    std::uint64_t items) {
  const double n = static_cast<double>(std::max<std::uint64_t>(items, 1));
  double put = 0.0;
  double take = 0.0;
  for (const infopipe::StatsSnapshot& s : snapshots) {
    for (const infopipe::BufferStats& b : s.buffers) {
      put += static_cast<double>(b.put_blocks);
      take += static_cast<double>(b.take_blocks);
    }
  }
  return {{"core.put_blocks_per_item", put / n, ""},
          {"core.take_blocks_per_item", take / n, ""}};
}

ShardSample sample_shards(infopipe::shard::ShardGroup& group) {
  ShardSample s;
  s.at = now_ns();
  for (int i = 0; i < 2; ++i) {
    s.cpu_s[static_cast<std::size_t>(i)] =
        group.call_on(i, [] { return thread_cpu_s(); });
    s.timer_wakeups += group.call_on(
        i, [&group, i] { return group.runtime(i).stats().timer_wakeups; });
  }
  return s;
}

std::vector<Metric> shard_rates(const ShardSample& before,
                                const ShardSample& after) {
  const double wall = static_cast<double>(after.at - before.at) / 1e9;
  return {{"rt.timer_wakeups_per_s",
           static_cast<double>(after.timer_wakeups - before.timer_wakeups) /
               wall,
           ""},
          {"rt.busy_frac.shard0", (after.cpu_s[0] - before.cpu_s[0]) / wall,
           ""},
          {"rt.busy_frac.shard1", (after.cpu_s[1] - before.cpu_s[1]) / wall,
           ""}};
}


// ---- host record ------------------------------------------------------------

namespace {

std::string cpu_governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string g;
  return in >> g ? g : "unknown";
}

}  // namespace

std::string host_json(const Args& a) {
  const infopipe::InfopipeConfig& c = infopipe::config();
  auto b = [](bool v) { return v ? "true" : "false"; };
  std::string j = "{";
  j += "\"num_cpus\":" + std::to_string(std::thread::hardware_concurrency());
  j += ",\"governor\":\"" + cpu_governor() + "\"";
#ifdef NDEBUG
  j += ",\"build_type\":\"release\"";
#else
  j += ",\"build_type\":\"debug\"";
#endif
  j += ",\"compiler\":\"";
#if defined(__clang__)
  j += "clang ";
#elif defined(__GNUC__)
  j += "gcc ";
#endif
  j += __VERSION__;
  j += "\"";
  j += ",\"commit\":\"" + a.commit + "\"";
  j += ",\"config\":{";
  j += std::string("\"pooling\":") + b(c.pooling);
  j += std::string(",\"batching\":") + b(c.batching);
  j += std::string(",\"inline_payloads\":") + b(c.inline_payloads);
  j += std::string(",\"real_net\":") + b(c.real_net);
  j += std::string(",\"record\":") + b(c.record);
  j += std::string(",\"sessions\":") + b(c.sessions);
  j += std::string(",\"elastic\":") + b(c.elastic);
  j += ",\"seed\":" + std::to_string(c.seed);
  j += "}}";
  return j;
}

}  // namespace e2e
