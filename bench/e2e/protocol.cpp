#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "workload.hpp"

namespace e2e {

namespace {

struct Def {
  const char* name;
  const char* unit;
};

// Counters of the traced closed-loop repetitions, per delivered item: what
// capacity is made of. Median over the repetitions.
constexpr Def kClosedLayer[] = {
    {"rt.switches_per_item", "count"},
    {"rt.dispatches_per_item", "count"},
    {"core.handoff_us", "us"},
    {"core.put_blocks_per_item", "count"},
    {"core.take_blocks_per_item", "count"},
    {"mem.miss_per_item", "count"},
    {"mem.foreign_per_item", "count"},
    {"mem.slab_mb", "MB"},
    {"shard.wakeups_per_item", "count"},
    {"shard.stalls_per_item", "count"},
    {"shard.max_fill_frac", "frac"},
    {"net.rw_syscalls_per_frame", "count"},
    {"net.partial_writes_per_frame", "count"},
};

// Rates, shares and stamp costs of the traced open loop.
constexpr Def kOpenLayer[] = {
    {"rt.timer_wakeups_per_s", "1/s"},
    {"rt.busy_frac.shard0", "frac"},
    {"rt.busy_frac.shard1", "frac"},
    {"session.open_us.p50", "us"},
    {"session.open_us.p99", "us"},
    {"session.close_us.p50", "us"},
    {"session.close_us.p99", "us"},
};

// Layers whose self time the span book reports (span-name prefixes).
constexpr const char* kLayers[] = {"rt",  "core",    "mem", "shard",
                                   "net", "session", "app"};

double value_of(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double per_s(std::uint64_t n, double s) {
  return s > 0.0 ? static_cast<double>(n) / s : 0.0;
}

/// How long each set-up instance's flow runs before it is stopped.
constexpr double kSetupRunS = 0.05;

}  // namespace

Result run_workload(const Args& a, Workload& w) {
  const Budget b = plan_budget(a);
  Result r;
  auto lat_us = [](const Phase& p, double q) {
    return p.latency.quantile(q) / 1e3;
  };

  std::vector<double> realizes;
  auto account = [&](const Phase& p) {
    r.attempted += p.attempted;
    r.failed += p.attempted - std::min(p.ok, p.attempted);
    for (const std::string& e : p.errors) r.error(e);
    realizes.push_back(p.realize_s);
  };

  auto check_plan = [&](const Phase& p, std::size_t want) {
    if (p.plan_threads != want) {
      r.error("probes changed the plan: " + std::to_string(p.plan_threads) +
              " threads vs " + std::to_string(want));
    }
  };

  // The open loop runs first, on a fresh process, and the peak resident
  // set is read right after it: every build-run-teardown cycle leaves the
  // process somewhat larger (README, Findings), so a peak taken after the
  // closed loop would mostly count its repetitions.
  const Phase open = w.open(OpenSpec{b.open_s, nullptr});
  const double rss_mb = peak_rss_mb();
  account(open);
  const double p50_us = lat_us(open, 0.50);
  const double p99_us = lat_us(open, 0.99);
  std::printf("latency samples: %" PRIu64 " (quantiles: median over %.1f s "
              "windows)\n",
              open.latency.count(), static_cast<double>(kWindow) / 1e9);
  open.latency.print();

  // Set-up: fresh instances of the open loop, each stopped after a moment
  // of flow. Set-up is counted in CPU time of the whole process, so that
  // every thread it starts counts and waiting for the host to run one does
  // not: on a shared host a set-up is mostly cross-thread hand-offs, and
  // its wall time moved 2.7x between two sets of runs of the same build
  // (README).
  std::vector<double> setups;
  std::vector<double> wall_setups;
  for (int i = 0; i < b.setups; ++i) {
    const Phase p = w.open(OpenSpec{kSetupRunS, nullptr});
    account(p);
    setups.push_back(p.setup_cpu_s);
    wall_setups.push_back(p.setup_s);
    std::printf("set-up: %.3f ms CPU, %.3f ms wall\n", p.setup_cpu_s * 1e3,
                p.setup_s * 1e3);
  }

  const Phase warm = w.closed(ClosedSpec{0, b.rep_s, false});
  account(warm);
  const std::uint64_t items = std::max<std::uint64_t>(warm.moved, 1000);

  auto repeat = [&](bool traced, std::vector<double>& caps,
                    std::vector<std::vector<Metric>>& layers) {
    for (int i = 0; i < b.reps; ++i) {
      Phase p = w.closed(ClosedSpec{items, b.rep_s, traced});
      account(p);
      check_plan(p, warm.plan_threads);
      caps.push_back(per_s(p.moved, p.busy_s));
      std::printf("closed-loop repetition%s: %.0f items/s, set-up %.3f ms "
                  "(%.3f ms CPU)\n",
                  traced ? " (traced)" : "", caps.back(), p.setup_s * 1e3,
                  p.setup_cpu_s * 1e3);
      layers.push_back(std::move(p.layer));
    }
  };

  std::vector<double> caps;
  std::vector<std::vector<Metric>> unused;
  repeat(false, caps, unused);
  const double capacity = median(caps);

  if (!a.trace) {
    r.add("setup_s", median(setups), "s");
    r.add("cpu_us_per_item", open.cpu_us_per_item, "us");
    r.add("peak_rss_mb", rss_mb, "MB");
    // Printed, not result metrics: on a shared host each is set mostly by
    // how soon the host runs a sleeping virtual CPU again (README).
    r.note("capacity_items_per_s", capacity, "items/s");
    r.note("lat_p50_us", p50_us, "us");
    r.note("lat_p99_us", p99_us, "us");
    r.note("setup_wall_s", median(wall_setups), "s");
    return r;
  }

  // Traced half: the same closed and open loops with probes at every
  // boundary. Counters come from here; the latency split comes from the
  // span book of the traced open loop.
  std::vector<double> traced_caps;
  std::vector<std::vector<Metric>> layers;
  repeat(true, traced_caps, layers);
  const auto rows = static_cast<std::size_t>(
      w.offered_rate() * b.open_s * 1.1 / TraceBook::kEvery + 64);
  TraceBook book(w.spans(), rows);
  const Phase traced = w.open(OpenSpec{b.open_s, &book});
  account(traced);
  check_plan(traced, open.plan_threads);
  const TraceBook::Summary s = book.summarize();
  book.write_jsonl(a.out_dir + "/" + a.workload + ".trace.jsonl", 4096);

  for (const Def& d : kClosedLayer) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(value_of(l, d.name));
    r.add(d.name, median(v), d.unit);
  }
  for (const Def& d : kOpenLayer) {
    r.add(d.name, value_of(traced.layer, d.name), d.unit);
  }
  r.add("core.realize_ms", median(realizes) * 1e3, "ms");

  auto span_q = [&](const char* name, double q) {
    const LogHistogram* h = s.span(name);
    return h == nullptr ? 0.0 : h->quantile(q) / 1e3;
  };
  auto span_mean = [&](const char* name) {
    const LogHistogram* h = s.span(name);
    return h == nullptr ? 0.0 : h->mean();
  };
  const LogHistogram* net = s.layer("net");
  r.add("core.buffer_wait_us.p50", span_q("core.buffer_wait", 0.50), "us");
  r.add("core.buffer_wait_us.p99", span_q("core.buffer_wait", 0.99), "us");
  r.add("core.pump_late_us.p99", span_q("core.pump_late", 0.99), "us");
  r.add("mem.make_ns", span_mean("mem.make"), "ns");
  r.add("shard.hop_us.p50", span_q("shard.hop", 0.50), "us");
  r.add("shard.hop_us.p99", span_q("shard.hop", 0.99), "us");
  r.add("net.frame_us.p50", net == nullptr ? 0.0 : net->quantile(0.50) / 1e3,
        "us");
  r.add("net.frame_us.p99", net == nullptr ? 0.0 : net->quantile(0.99) / 1e3,
        "us");
  r.add("net.marshal_us", span_mean("net.marshal") / 1e3, "us");
  r.add("session.wheel_late_us.p99", span_q("session.wheel", 0.99), "us");

  std::printf("self time per sampled item (%" PRIu64 " items, %" PRIu64
              " incomplete):\n",
              s.items, s.incomplete);
  for (const char* layer : kLayers) {
    const LogHistogram* h = s.layer(layer);
    const double us = h == nullptr ? 0.0 : h->mean() / 1e3;
    std::printf("  %-8s %10.3f us\n", layer, us);
    r.add(std::string("self.") + layer + "_us", us, "us");
  }
  const double self_frac =
      s.e2e_sum_ns > 0.0 ? s.self_sum_ns / s.e2e_sum_ns : 0.0;
  std::printf("  e2e      %10.3f us  (self-time sum / e2e = %.4f)\n",
              s.e2e.mean() / 1e3, self_frac);
  r.add("trace.e2e_us", s.e2e.mean() / 1e3, "us");

  const double overhead_cap =
      capacity > 0.0 ? 1.0 - median(traced_caps) / capacity : 0.0;
  const double overhead_p50 =
      lat_us(traced, 0.50) - p50_us;
  std::printf("tracing overhead: capacity %+.2f%%, lat p50 %+.3f us\n",
              -100.0 * overhead_cap, overhead_p50);
  r.add("trace.overhead_capacity_frac", overhead_cap, "frac");
  r.add("trace.overhead_lat_p50_us", overhead_p50, "us");
  return r;
}

}  // namespace e2e
