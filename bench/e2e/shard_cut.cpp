// shard_cut: cross-shard item movement on ShardGroup(2).
//
//   src -> gen(batch 32) -> cut(128) -> pump2(batch 32) -> sink
//
// The partitioner cuts at the buffer, so the two sections land on two
// shards joined by a ShardChannel. 1 KiB pooled payloads are made on shard
// 0 and freed on shard 1: the work is span movement through the channel,
// doorbell wakes and foreign pool returns — mem is exercised the opposite
// way from coroutine_chain (cross-shard returns, not owner recycling).
#include <memory>

#include "flow.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace infopipe;

constexpr std::size_t kPayloadBytes = 1024;
constexpr std::size_t kBatch = 32;
/// Once more than 256 items are in flight the producer pool's
/// foreign-return stash overflows into the consumer shard's pool, which
/// never allocates, so the producer pool carves fresh slabs for ~1 KiB per
/// item without bound (README, Findings). A backlog behind a stall of the
/// shared host sets that off at random, so the flow is sized to keep fewer
/// in flight: the cut holds 128, the generator's batch at most 50 and the
/// consumer's 32.
constexpr std::size_t kCutCapacity = 128;
/// Offered rate of the open loop, 50 items per 1 ms tick. Half the
/// capacity would be about 1M items/s; see kCutCapacity for the limit.
constexpr double kOfferedRate = 50'000.0;

// Boundaries: 0 due | 1 gen.start | 2 gen.end | 3 gen out (shard 0)
// | 4 cut out (shard 1) | 5 sink.
const std::vector<std::string> kSpans = {"core.pump_late", "mem.make",
                                         "core.batch", "shard.hop",
                                         "core.sink"};

struct Cut {
  PayloadSource src;
  std::unique_ptr<Pump> gen;
  Buffer cut{"cut", kCutCapacity};
  FreeRunningPump pump2{PumpSpec{.name = "pump2", .max_batch = kBatch}};
  PayloadSink sink;
  std::vector<std::unique_ptr<Probe>> probes;
  Pipeline pipe;

  Cut(const PayloadBank& bank, std::uint64_t items, std::unique_ptr<Pump> g,
      const GenPump* clock, TraceBook* book)
      : src(bank, items, book), gen(std::move(g)), sink(bank, clock, book) {
    pipe.connect(src, 0, *gen, 0);
    Component* prev = gen.get();
    Component* rest[] = {&cut, &pump2};
    int boundary = kGenEnd + 1;
    for (Component* c : rest) {
      if (book != nullptr) {
        probes.push_back(std::make_unique<Probe>(
            "probe" + std::to_string(boundary), *book, boundary));
        pipe.connect(*prev, 0, *probes.back(), 0);
        prev = probes.back().get();
        ++boundary;
      }
      pipe.connect(*prev, 0, *c, 0);
      prev = c;
    }
    pipe.connect(*prev, 0, sink, 0);
  }
};

class ShardCut final : public Workload {
 public:
  explicit ShardCut(const Args& a) : bank_(a.seed, kPayloadBytes) {}

  [[nodiscard]] std::vector<std::string> spans() const override {
    return kSpans;
  }
  [[nodiscard]] double offered_rate() const override { return kOfferedRate; }

  Phase closed(const ClosedSpec& s) override {
    Phase p;
    TraceBook none(kSpans, 0);
    const SetupClock setup;
    shard::ShardGroup group(2);
    Cut c(bank_, s.items == 0 ? ~std::uint64_t{0} : s.items,
          std::make_unique<FreeRunningPump>(
              PumpSpec{.name = "gen", .max_batch = kBatch}),
          nullptr, s.traced ? &none : nullptr);
    const Ns t_real = now_ns();
    shard::ShardedRealization real(group, c.pipe);
    p.realize_s = static_cast<double>(now_ns() - t_real) / 1e9;
    p.plan_threads = real.plan_info().threads;
    check_placement(real, p);
    c.src.hold();
    real.start();
    setup.stop(p);
    const Ns t_start = now_ns();
    c.src.release();
    if (s.items == 0) {
      c.src.set_deadline(now_ns() + static_cast<Ns>(s.seconds * 1e9));
    }
    if (!wait_for([&] { return c.sink.eos(); }, s.seconds * 10 + 30)) {
      p.errors.emplace_back("shard_cut: no end of stream");
    }
    group.stop();  // joins the shard threads: everything below reads directly
    p.attempted = c.src.produced();
    p.ok = c.sink.ok();
    p.moved = p.ok;
    p.busy_s = static_cast<double>(c.sink.eos_at() - t_start) / 1e9;
    if (s.traced) p.layer = closed_layer(group, real, p.ok);
    return p;
  }

  Phase open(const OpenSpec& s) override {
    Phase p;
    const auto burst = static_cast<std::size_t>(kOfferedRate / 1000.0);
    const auto ticks = static_cast<std::uint64_t>(s.seconds * 1000.0);
    const SetupClock setup;
    shard::ShardGroup group(2);
    auto gen = std::make_unique<GenPump>(burst);
    const GenPump* clock = gen.get();
    Cut c(bank_, ticks * burst, std::move(gen), clock, s.book);
    const std::uint64_t warm = GenPump::warmup_ticks(ticks);
    c.sink.measure_from(warm * burst);
    const Ns t_real = now_ns();
    shard::ShardedRealization real(group, c.pipe);
    p.realize_s = static_cast<double>(now_ns() - t_real) / 1e9;
    p.plan_threads = real.plan_info().threads;
    check_placement(real, p);
    // Sampled only when traced: the round trips would count as set-up.
    const ShardSample before = s.book ? sample_shards(group) : ShardSample{};
    real.start();
    setup.stop(p);
    CpuMeter cpu([&c] { return c.sink.ok(); },
                 now_ns() + static_cast<Ns>(warm) * GenPump::kTick);
    if (!wait_for([&] { return c.sink.eos(); }, s.seconds * 3 + 30)) {
      p.errors.emplace_back("shard_cut: no end of stream");
    }
    cpu.stop();
    const ShardSample after = sample_shards(group);
    group.stop();
    p.attempted = c.src.produced();
    p.ok = c.sink.ok();
    p.cpu_us_per_item = cpu.us_per_item();
    p.latency = c.sink.latency();
    if (s.book != nullptr) p.layer = shard_rates(before, after);
    return p;
  }

 private:
  /// The cut must really cross shards: section 0 (src, gen) on one shard,
  /// section 1 (pump2, sink) on the other, one channel between them.
  static void check_placement(shard::ShardedRealization& real, Phase& p) {
    if (real.channel_count() != 1 ||
        real.shard_of_section(0) == real.shard_of_section(1)) {
      p.errors.emplace_back("shard_cut: the buffer was not cut across shards");
    }
  }

  static std::vector<Metric> closed_layer(shard::ShardGroup& group,
                                          shard::ShardedRealization& real,
                                          std::uint64_t items) {
    const double n = static_cast<double>(std::max<std::uint64_t>(items, 1));
    std::vector<Metric> out =
        runtime_counters({&group.runtime(0), &group.runtime(1)}, items);
    const StatsSnapshot snap = real.stats_snapshot();
    if (!snap.channels.empty()) {
      const ChannelStats& ch = snap.channels.front();
      out.push_back({"shard.wakeups_per_item",
                     static_cast<double>(ch.wakeups) / n, ""});
      out.push_back(
          {"shard.stalls_per_item",
           static_cast<double>(ch.flow.put_blocks + ch.flow.take_blocks) / n,
           ""});
      out.push_back({"shard.max_fill_frac",
                     static_cast<double>(ch.flow.max_fill) /
                         static_cast<double>(ch.flow.capacity),
                     ""});
    }
    return out;
  }

  PayloadBank bank_;
};

}  // namespace

std::unique_ptr<Workload> make_shard_cut(const Args& a) {
  return std::make_unique<ShardCut>(a);
}

}  // namespace e2e
