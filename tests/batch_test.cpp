// Batched item path (PR 6): span-based push/pop/consume from pump to shard
// channel.
//
// The contract under test: batching (PumpSpec::max_batch > 1) is a pure
// throughput optimization — the flow a sink observes (sequence, payloads,
// EOS) is bit-identical to the per-item path, including under buffer drop
// policies, mid-batch end-of-stream, and a live cross-shard migration. The
// per-item reference is the same pipeline with every pump at max_batch = 1.
// Buffer's one-item put/take are themselves one-item spans, so the Buffer
// section checks both against a sequential model instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "rt/clock.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

/// A pump's max_batch: `n` on the batched run, 1 on the per-item one.
std::size_t batch_of(bool batched, std::size_t n) { return batched ? n : 1; }

// ---------- buffer ring span primitives -------------------------------------

TEST(BatchChannel, SpanOpsReserveCapacityBoundedBursts) {
  Buffer ch("x", 8);
  std::vector<Item> in(12);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Item::token();
    in[i].seq = i;
  }
  // One reservation claims min(space, span) slots — never the overflow
  // reserve.
  EXPECT_EQ(ch.try_put_span(ItemSpan(in.data(), in.size())), 8u);
  EXPECT_EQ(ch.fill(), 8u);
  EXPECT_EQ(ch.try_put_span(ItemSpan(in.data() + 8, 4)), 0u);

  std::vector<Item> out(16);
  EXPECT_EQ(ch.try_take_span(ItemSpan(out.data(), out.size())), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].seq, i);
  EXPECT_EQ(ch.try_take_span(ItemSpan(out.data(), out.size())), 0u);
  EXPECT_EQ(ch.fill(), 0u);
}

TEST(BatchChannel, EosDrainsQueuedItemsFirst) {
  Buffer ch("x", 8);
  std::vector<Item> in(3);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Item::token();
    in[i].seq = i;
  }
  ASSERT_EQ(ch.try_put_span(ItemSpan(in.data(), in.size())), 3u);
  ch.set_eos();
  // The sticky flag never hides queued data: the burst drains first.
  std::vector<Item> out(8);
  EXPECT_EQ(ch.try_take_span(ItemSpan(out.data(), out.size())), 3u);
  EXPECT_EQ(out[2].seq, 2u);
  EXPECT_EQ(ch.try_take_span(ItemSpan(out.data(), out.size())), 0u);
  EXPECT_TRUE(ch.eos());
}

// ---------- single-shard batched flows --------------------------------------

struct FlowResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
};

/// Keeps the first of two items: the pairing rule of the defragmenters
/// below, so a pair (a, b) arrives as a's seq.
Item first_of_pair(Item a, Item b) {
  (void)b;
  return a;
}

/// Routes seq % 3 == 0 to port 0, 1 to port 1, and drops the rest (an
/// out-of-range port).
class Mod3Switch : public RoutingSwitch {
 public:
  Mod3Switch() : RoutingSwitch("mod3", 2) {}

 protected:
  int select(const Item& x) override { return static_cast<int>(x.seq % 3); }
};

/// Combines one item from each input into one whose seq is their sum.
class SeqSum : public CombineTee {
 public:
  SeqSum() : CombineTee("sum", 2) {}

 protected:
  Item combine(std::vector<Item> xs) override {
    xs[0].seq += xs[1].seq;
    return std::move(xs[0]);
  }
};

/// One chain shape of the differential test. `run` realizes the shape in
/// `rtm` with its pumps batched or at max_batch = 1 and returns what the
/// sinks saw, concatenated sink by sink; `want` is the same sequence
/// computed from the source and the components' own rules.
struct Shape {
  const char* name;
  std::function<FlowResult(rt::Runtime&, bool batched)> run;
  std::vector<std::uint64_t> want;
};

std::vector<std::uint64_t> seqs_where(
    std::uint64_t n, const std::function<bool(std::uint64_t)>& keep) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (keep(i)) v.push_back(i);
  }
  return v;
}

std::vector<std::uint64_t> concat(std::vector<std::uint64_t> a,
                                  const std::vector<std::uint64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

FlowResult run_chain(rt::Runtime& rtm, const Pipeline& p,
                     const std::vector<const CollectorSink*>& sinks) {
  Realization real(rtm, p);
  real.start();
  rtm.run();
  FlowResult r{{}, true};
  for (const CollectorSink* s : sinks) {
    r.seqs = concat(std::move(r.seqs), s->seqs());
    r.eos = r.eos && s->eos_seen();
  }
  return r;
}

std::vector<Shape> shapes() {
  constexpr std::uint64_t kN = 300;
  const auto all = [](std::uint64_t) { return true; };
  std::vector<Shape> v;
  v.push_back({"buffered",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", 500);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 Buffer buf("buf", 32);
                 ClockedPump drain(PumpSpec{.name = "drain",
                                            .rate_hz = 500.0,
                                            .max_batch = batch_of(batched, 8)});
                 CollectorSink sink("sink");
                 auto ch = src >> pump >> buf >> drain >> sink;
                 return run_chain(rtm, ch.pipeline(), {&sink});
               },
               seqs_where(500, all)});
  // A push-mode Consumer emitting 0, 1 or 2 items per input.
  v.push_back({"consumer",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", kN);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 LambdaConsumer fan("fan", [](Item x, const auto& emit) {
                   const std::uint64_t copies = x.seq % 3;
                   for (std::uint64_t i = 0; i < copies; ++i) emit(x);
                 });
                 CollectorSink sink("sink");
                 auto ch = src >> pump >> fan >> sink;
                 return run_chain(rtm, ch.pipeline(), {&sink});
               },
               [] {
                 std::vector<std::uint64_t> w;
                 for (std::uint64_t i = 0; i < kN; ++i) {
                   for (std::uint64_t c = 0; c < i % 3; ++c) w.push_back(i);
                 }
                 return w;
               }()});
  // Figure 9e: consumer | pump | producer, both coroutines. A coroutine
  // answers a pull with one item, so the bursts come from the feeder.
  v.push_back({"figure9e",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", 4 * kN);
                 FreeRunningPump feed(PumpSpec{
                     .name = "feed", .max_batch = batch_of(batched, 16)});
                 Buffer buf("buf", 64);
                 DefragmenterConsumer consumer("consumer", first_of_pair);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 8)});
                 DefragmenterProducer producer("producer", first_of_pair);
                 CollectorSink sink("sink");
                 auto ch =
                     src >> feed >> buf >> consumer >> pump >> producer >> sink;
                 return run_chain(rtm, ch.pipeline(), {&sink});
               },
               seqs_where(4 * kN, [](std::uint64_t i) { return i % 4 == 0; })});
  // An active object in push mode: a coroutine fed one item at a time.
  v.push_back({"active",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", kN);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 DefragmenterActive active("active", first_of_pair);
                 CollectorSink sink("sink");
                 auto ch = src >> pump >> active >> sink;
                 return run_chain(rtm, ch.pipeline(), {&sink});
               },
               seqs_where(kN, [](std::uint64_t i) { return i % 2 == 0; })});
  v.push_back({"multicast",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", kN);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 MulticastTee tee("tee", 2);
                 CollectorSink a("a");
                 CollectorSink b("b");
                 Pipeline p;
                 p.connect(src, 0, pump, 0);
                 p.connect(pump, 0, tee, 0);
                 p.connect(tee, 0, a, 0);
                 p.connect(tee, 1, b, 0);
                 return run_chain(rtm, p, {&a, &b});
               },
               concat(seqs_where(kN, all), seqs_where(kN, all))});
  v.push_back({"routing",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", kN);
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 Mod3Switch sw;
                 CollectorSink a("a");
                 CollectorSink b("b");
                 Pipeline p;
                 p.connect(src, 0, pump, 0);
                 p.connect(pump, 0, sw, 0);
                 p.connect(sw, 0, a, 0);
                 p.connect(sw, 1, b, 0);
                 return run_chain(rtm, p, {&a, &b});
               },
               concat(seqs_where(kN, [](auto i) { return i % 3 == 0; }),
                      seqs_where(kN, [](auto i) { return i % 3 == 1; }))});
  std::vector<std::uint64_t> shifted;
  for (std::uint64_t i = 0; i < kN; ++i) shifted.push_back(1000 + i);
  // Two pumps into one merge: the arrival interleaving follows the burst
  // size, the order within each input does not. The second input is
  // shifted by 1000 and the result split back per input.
  v.push_back({"merge",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource s1("s1", kN);
                 CountingSource s2("s2", kN);
                 FreeRunningPump p1(PumpSpec{
                     .name = "p1", .max_batch = batch_of(batched, 16)});
                 FreeRunningPump p2(PumpSpec{
                     .name = "p2", .max_batch = batch_of(batched, 16)});
                 LambdaFunction shift("shift", [](Item x) {
                   x.seq += 1000;
                   return x;
                 });
                 MergeTee merge("merge", 2);
                 CollectorSink sink("sink");
                 Pipeline p;
                 p.connect(s1, 0, p1, 0);
                 p.connect(s2, 0, p2, 0);
                 p.connect(p1, 0, merge, 0);
                 p.connect(p2, 0, shift, 0);
                 p.connect(shift, 0, merge, 1);
                 p.connect(merge, 0, sink, 0);
                 FlowResult r = run_chain(rtm, p, {&sink});
                 std::stable_sort(r.seqs.begin(), r.seqs.end(),
                                  [](std::uint64_t x, std::uint64_t y) {
                                    return x < 1000 && y >= 1000;
                                  });
                 return r;
               },
               concat(seqs_where(kN, all), shifted)});
  // A combine answers a pull with one item, so the bursts come from the
  // drain behind the buffer.
  v.push_back({"combine",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource s1("s1", kN);
                 CountingSource s2("s2", kN);
                 SeqSum sum;
                 FreeRunningPump pump(PumpSpec{
                     .name = "pump", .max_batch = batch_of(batched, 16)});
                 Buffer buf("buf", 64);
                 FreeRunningPump drain(PumpSpec{
                     .name = "drain", .max_batch = batch_of(batched, 8)});
                 CollectorSink sink("sink");
                 Pipeline p;
                 p.connect(s1, 0, sum, 0);
                 p.connect(s2, 0, sum, 1);
                 p.connect(sum, 0, pump, 0);
                 p.connect(pump, 0, buf, 0);
                 p.connect(buf, 0, drain, 0);
                 p.connect(drain, 0, sink, 0);
                 return run_chain(rtm, p, {&sink});
               },
               seqs_where(2 * kN, [](auto i) { return i % 2 == 0; })});
  // Two pullers share one source: who gets which item follows the burst
  // size, so the union of what they received is compared.
  v.push_back({"balancing",
               [](rt::Runtime& rtm, bool batched) {
                 CountingSource src("src", kN);
                 BalancingSwitch sw("sw", 2);
                 FreeRunningPump p1(PumpSpec{
                     .name = "p1", .max_batch = batch_of(batched, 16)});
                 FreeRunningPump p2(PumpSpec{
                     .name = "p2", .max_batch = batch_of(batched, 16)});
                 CollectorSink a("a");
                 CollectorSink b("b");
                 Pipeline p;
                 p.connect(src, 0, sw, 0);
                 p.connect(sw, 0, p1, 0);
                 p.connect(sw, 1, p2, 0);
                 p.connect(p1, 0, a, 0);
                 p.connect(p2, 0, b, 0);
                 FlowResult r = run_chain(rtm, p, {&a, &b});
                 std::sort(r.seqs.begin(), r.seqs.end());
                 return r;
               },
               seqs_where(kN, all)});
  return v;
}

TEST(Batch, BatchedAndPerItemFlowsAreBitIdentical) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    rt::Runtime on_rt;
    const FlowResult on = shape.run(on_rt, true);
    rt::Runtime off_rt;
    const FlowResult off = shape.run(off_rt, false);
    EXPECT_EQ(on.seqs, shape.want);
    // max_batch = 1 is the whole per-item path, not a tuned-down batch.
    EXPECT_EQ(on.seqs, off.seqs);
    EXPECT_TRUE(on.eos);
    EXPECT_TRUE(off.eos);
    // The batched run really moved bursts of more than one item, whatever
    // the styles of the chain's members.
    EXPECT_GT(on_rt.metrics().histogram("core.batch_items").max(), 1);
  }
}

TEST(Batch, DropOldestEvictsSpanPrefixBurstWise) {
  rt::Runtime rtm;
  CountingSource src("src", 64);
  // One 1 Hz fire moves the entire flow as a single 64-item span.
  ClockedPump fill(PumpSpec{.name = "fill", .rate_hz = 1.0, .max_batch = 64});
  Buffer buf("buf", 8, FullPolicy::kDropOldest, EmptyPolicy::kNil);
  ClockedPump drain("drain", 1000.0);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(500));
  real.shutdown();
  rtm.run();
  // kDropOldest keeps the newest `capacity` items of (queue ++ span): with
  // the burst alone exceeding capacity, the span's own 56-item PREFIX is
  // dropped and the tail 56..63 survives, in order.
  const std::vector<std::uint64_t> want{56, 57, 58, 59, 60, 61, 62, 63};
  EXPECT_EQ(sink.seqs(), want);
  EXPECT_EQ(buf.stats().drops, 56u);
}

/// A pooled payload (too large to live inline) that counts its live
/// instances.
struct Tracked {
  static inline int live = 0;
  std::array<char, 200> pad{};
  Tracked() { ++live; }
  Tracked(const Tracked& o) : pad(o.pad) { ++live; }
  Tracked(Tracked&& o) noexcept : pad(o.pad) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  ~Tracked() { --live; }
};

/// Passive source of `count` Tracked payloads, then end-of-stream.
class TrackedSource : public PassiveSource {
 public:
  TrackedSource(std::string name, std::uint64_t count)
      : PassiveSource(std::move(name)), count_(count) {}

 protected:
  Item generate() override {
    if (next_ == count_) return Item::eos();
    Item x = Item::of(Tracked{});
    x.seq = next_++;
    return x;
  }

 private:
  std::uint64_t count_;
  std::uint64_t next_ = 0;
};

/// Payloads still alive once a 64-item burst has met a full Buffer(8) under
/// `full` and the flow has been torn down. Only the 8 queued items survive
/// the drop, and the drain delivers them.
int live_after_buffer_drop(FullPolicy full) {
  rt::Runtime rtm;
  TrackedSource src("src", 64);
  ClockedPump fill(PumpSpec{.name = "fill", .rate_hz = 1.0, .max_batch = 64});
  Buffer buf("buf", 8, full, EmptyPolicy::kNil);
  ClockedPump drain("drain", 1000.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  {
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run_until(rt::milliseconds(500));
    real.shutdown();
    rtm.run();
  }
  EXPECT_EQ(sink.count(), 8u);
  EXPECT_EQ(buf.stats().drops, 56u);
  return Tracked::live;
}

/// live_after_buffer_drop() with the buffer cut across two shards, so its
/// ends are bound to two runtimes.
int live_after_cut_drop() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));
  TrackedSource src("src", 64);
  ClockedPump fill(PumpSpec{.name = "fill", .rate_hz = 1.0, .max_batch = 64});
  Buffer buf("buf", 8, FullPolicy::kDropNewest, EmptyPolicy::kNil);
  ClockedPump drain("drain", 1000.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  {
    shard::ShardedRealization sr(group, ch.pipeline());
    EXPECT_TRUE(buf.two_runtimes());
    sr.start();
    group.step_until(rt::milliseconds(500));
    sr.shutdown();
    group.step_until(rt::seconds(1));
  }
  EXPECT_EQ(sink.count(), 8u);
  EXPECT_EQ(buf.stats().drops, 56u);
  return Tracked::live;
}

TEST(Batch, DroppedItemsDieAtTheirDrop) {
  // A dropped item is released at the drop decision, as a dropped one-item
  // put releases it, not kept alive by the pump's burst scratch.
  EXPECT_EQ(live_after_buffer_drop(FullPolicy::kDropNewest), 0);
  EXPECT_EQ(live_after_buffer_drop(FullPolicy::kDropOldest), 0);

  // The same for a buffer cut across two shards under kDropNewest.
  EXPECT_EQ(live_after_cut_drop(), 0);
}

TEST(Batch, BurstOverrunningABufferWakesItsWaitingReader) {
  // The drain waits on the empty buffer when a 3-item burst meets a
  // 2-item buffer: the reader must be woken as soon as items land, before
  // the pusher blocks on the rest, or both wait for ever.
  rt::Runtime rtm;
  CountingSource src("src", 100);
  FreeRunningPump fill(PumpSpec{.name = "fill", .max_batch = 3});
  Buffer buf("buf", 2);
  ClockedPump drain("drain", 1000.0);
  CountingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 100u);
}

TEST(Batch, EosArrivesOnlyAtBurstBoundaries) {
  rt::Runtime rtm;
  CountingSource src("src", 10);  // deliberately not a multiple of max_batch
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 64});
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  // The final short burst carries data only; EOS follows as a one-item
  // span of its own on the next fire (a span never mixes data and
  // specials).
  ASSERT_EQ(sink.count(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(sink.seqs()[i], i);
  EXPECT_TRUE(sink.eos_seen());
}

// ---------- Buffer against a sequential model --------------------------------

/// The reference Buffer semantics, one item at a time: a deque plus the
/// counters Buffer::Stats keeps. A burst equals its items put (or taken)
/// one by one, except that a take from an empty buffer is one nil return.
struct BufferModel {
  std::size_t capacity;
  FullPolicy full;
  std::deque<std::uint64_t> q;
  Buffer::Stats stats;

  void put(std::uint64_t seq) {
    if (q.size() >= capacity && full == FullPolicy::kDropNewest) {
      ++stats.drops;
      return;
    }
    // kDropOldest evicts; the kBlock script never puts into a full buffer.
    while (q.size() >= capacity) {
      q.pop_front();
      ++stats.drops;
    }
    q.push_back(seq);
    ++stats.puts;
    stats.max_fill = std::max(stats.max_fill, q.size());
  }

  /// The up to `n` oldest items; none (a nil return) when empty.
  std::vector<std::uint64_t> take(std::size_t n) {
    std::vector<std::uint64_t> out;
    if (q.empty()) ++stats.nil_returns;
    while (out.size() < n && !q.empty()) {
      out.push_back(q.front());
      q.pop_front();
    }
    stats.takes += out.size();
    return out;
  }
};

/// Runs one seeded step per clock fire against a Buffer and the model side
/// by side: a one-item put or take, or a put_span/take_span of 1 to
/// 2 * capacity items. Puts carry fresh sequence numbers; taken items go
/// downstream to the sink. After every step the sink's sequence, the fill
/// and Buffer::stats() must equal the model's. The buffer is driven from
/// this driver's thread with EmptyPolicy::kNil, and the kBlock script never
/// overfills, so no step waits.
class BufferScript : public ClockedSourceBase {
 public:
  BufferScript(Buffer& buf, const CollectorSink& sink, std::uint64_t seed,
               int steps)
      : ClockedSourceBase("script", 1000.0),
        buf_(buf),
        sink_(sink),
        model_{buf.capacity(), buf.full_policy(), {}, {}},
        rng_(seed),
        steps_(steps) {}

 protected:
  // Never called: cycle() below replaces the one-item generate cycle.
  [[nodiscard]] Item generate() override { return Item::eos(); }

  void cycle() override {
    if (step_ == steps_) throw EndOfStream{};
    HostContext& host = realization()->current_host();
    const bool span = coin_(rng_) != 0;
    std::size_t k = span ? size_(rng_) : 1;
    bool put = coin_(rng_) != 0;
    if (buf_.full_policy() == FullPolicy::kBlock) {
      const std::size_t space = buf_.capacity() - model_.q.size();
      if (space == 0) put = false;
      if (put) k = std::min(k, space);
    }
    if (put) {
      std::vector<Item> xs(k);
      for (Item& x : xs) {
        x = Item::token();
        x.seq = next_seq_;
        model_.put(next_seq_++);
      }
      if (span) {
        buf_.put_span(ItemSpan(xs), host);
      } else {
        buf_.put(std::move(xs[0]), host);
      }
    } else {
      std::vector<Item> out(k);
      std::size_t n = 1;
      if (span) {
        n = buf_.take_span(ItemSpan(out), host);
      } else {
        out[0] = buf_.take(host);
      }
      for (const std::uint64_t seq : model_.take(k)) want_.push_back(seq);
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i].is_data()) push_next(std::move(out[i]));
      }
    }
    check();
    ++step_;
  }

 private:
  void check() {
    const Buffer::Stats& got = buf_.stats();
    const Buffer::Stats& want = model_.stats;
    EXPECT_EQ(sink_.seqs(), want_) << "step " << step_;
    EXPECT_EQ(buf_.fill(), model_.q.size()) << "step " << step_;
    EXPECT_EQ(got.puts, want.puts) << "step " << step_;
    EXPECT_EQ(got.takes, want.takes) << "step " << step_;
    EXPECT_EQ(got.drops, want.drops) << "step " << step_;
    EXPECT_EQ(got.nil_returns, want.nil_returns) << "step " << step_;
    EXPECT_EQ(got.max_fill, want.max_fill) << "step " << step_;
    EXPECT_EQ(got.put_blocks, 0u) << "step " << step_;
    EXPECT_EQ(got.take_blocks, 0u) << "step " << step_;
    // Stop at the first divergence: later steps only repeat it.
    if (::testing::Test::HasFailure()) throw EndOfStream{};
  }

  Buffer& buf_;
  const CollectorSink& sink_;
  BufferModel model_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> coin_{0, 1};
  std::uniform_int_distribution<std::size_t> size_{1, 2 * buf_.capacity()};
  std::vector<std::uint64_t> want_;
  std::uint64_t next_seq_ = 0;
  int steps_;
  int step_ = 0;
};

/// `two_runtimes` binds the consumer end to a second runtime, as a cut
/// does: the same script must then match the model on the cross-thread
/// handshake path.
void run_buffer_script(FullPolicy full, std::uint64_t salt, bool two_runtimes) {
  rt::Runtime rtm(std::make_unique<rt::VirtualClock>());
  rt::Runtime far(std::make_unique<rt::VirtualClock>());
  Buffer buf("buf", 8, full, EmptyPolicy::kNil);
  buf.bind_producer(rtm, 0);
  if (two_runtimes) {
    buf.bind_consumer(far, 1);
  } else {
    buf.bind_consumer(rtm, 0);
  }
  EXPECT_EQ(buf.two_runtimes(), two_runtimes);
  CollectorSink sink("sink");
  BufferScript script(buf, sink, config().seed * 1000 + salt, 2000);
  auto ch = script >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_TRUE(sink.eos_seen());
  EXPECT_GT(sink.count(), 0u);
}

TEST(BufferModel, DropNewestMatchesSequentialModel) {
  run_buffer_script(FullPolicy::kDropNewest, 1, false);
}

TEST(BufferModel, DropOldestMatchesSequentialModel) {
  run_buffer_script(FullPolicy::kDropOldest, 2, false);
}

TEST(BufferModel, BlockWithoutWaitsMatchesSequentialModel) {
  run_buffer_script(FullPolicy::kBlock, 3, false);
}

TEST(BufferModel, DropNewestMatchesSequentialModelOnTwoRuntimes) {
  run_buffer_script(FullPolicy::kDropNewest, 1, true);
}

TEST(BufferModel, DropOldestMatchesSequentialModelOnTwoRuntimes) {
  run_buffer_script(FullPolicy::kDropOldest, 2, true);
}

TEST(BufferModel, BlockWithoutWaitsMatchesSequentialModelOnTwoRuntimes) {
  run_buffer_script(FullPolicy::kBlock, 3, true);
}

// ---------- BatchFilter and the per-item adapter -----------------------------

/// Span-native filter: tags every data item's kind, whole bursts at a time.
class TagKind : public BatchFilter {
 public:
  TagKind(std::string name, int kind)
      : BatchFilter(std::move(name)), kind_(kind) {}

  [[nodiscard]] std::uint64_t bursts() const noexcept { return bursts_; }

 protected:
  void convert_span(ItemSpan xs) override {
    ++bursts_;
    for (Item& x : xs) {
      if (x.is_data()) x.kind = kind_;
    }
  }

 private:
  int kind_;
  std::uint64_t bursts_ = 0;
};

TEST(Batch, BatchFilterAndPerItemFilterComposeIdentically) {
  auto run = [](bool batched) {
    rt::Runtime rtm;
    CountingSource src("src", 300);
    FreeRunningPump pump(
        PumpSpec{.name = "pump", .max_batch = batch_of(batched, 32)});
    TagKind tag("tag", 7);  // span-native
    LambdaFunction bump("bump", [](Item x) {  // per-item, auto-adapted
      x.seq += 1000;
      return x;
    });
    CollectorSink sink("sink");
    auto ch = src >> pump >> tag >> bump >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    FlowResult r{sink.seqs(), sink.eos_seen()};
    for (const CollectorSink::Arrival& a : sink.arrivals()) {
      EXPECT_EQ(a.item.kind, 7);
    }
    // One burst per data fire (300 items in bursts of 32, or one by one):
    // the lone EOS passes the filter without a convert_span call.
    EXPECT_EQ(tag.bursts(), batched ? 10u : 300u);
    return r;
  };
  const FlowResult on = run(true);
  const FlowResult off = run(false);
  ASSERT_EQ(on.seqs.size(), 300u);
  EXPECT_EQ(on.seqs.front(), 1000u);
  EXPECT_EQ(on.seqs, off.seqs);
  EXPECT_TRUE(on.eos);
  EXPECT_TRUE(off.eos);
}

// ---------- sharded lockstep: batching across a live migration ---------------

struct LockstepResult {
  std::vector<std::uint64_t> seqs;
  bool eos = false;
  std::vector<shard::MigrationOutcome> outcomes;
};

/// Three sections over two manual shards, all pumps batched (max_batch = 8)
/// or all per-item (max_batch = 1).
/// When `migrate` is set, section 1 moves to the other shard at t = 0.5 s
/// and back at t = 1 s — mid-flow in both the batched and per-item runs, so
/// the quiesce lands between span bursts with items queued in the cut ring.
LockstepResult run_sharded(bool batched, bool migrate) {
  const std::size_t mb = batch_of(batched, 8);
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(2, std::move(opt));

  constexpr std::uint64_t kN = 3000;
  CountingSource src("src", kN);
  ClockedPump p1(PumpSpec{.name = "p1", .rate_hz = 200.0, .max_batch = mb});
  Buffer b1("b1", 32);
  ClockedPump p2(PumpSpec{.name = "p2", .rate_hz = 200.0, .max_batch = mb});
  Buffer b2("b2", 32);
  ClockedPump p3(PumpSpec{.name = "p3", .rate_hz = 200.0, .max_batch = mb});
  CollectorSink sink("sink");
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> sink;

  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.section_count(), 3u);

  LockstepResult r;
  const int home = sr.shard_of_section(1);
  const int away = 1 - home;

  sr.start();
  for (rt::Time t = rt::milliseconds(100); t <= rt::seconds(20);
       t += rt::milliseconds(100)) {
    group.step_until(t);
    if (migrate && t == rt::milliseconds(500)) {
      r.outcomes.push_back(sr.migrate_section(1, away));
      EXPECT_EQ(sr.shard_of_section(1), away);
    }
    if (migrate && t == rt::seconds(1)) {
      r.outcomes.push_back(sr.migrate_section(1, home));
      EXPECT_EQ(sr.shard_of_section(1), home);
    }
  }
  EXPECT_TRUE(sr.finished());
  r.seqs = sink.seqs();
  r.eos = sink.eos_seen();
  return r;
}

TEST(BatchLockstep, ShardedFlowBitIdenticalToPerItemAcrossMigration) {
  const LockstepResult on = run_sharded(true, true);
  const LockstepResult off = run_sharded(false, true);

  // Zero loss, zero duplication, order preserved, under live migration with
  // batched span traffic through the cut rings...
  ASSERT_EQ(on.seqs.size(), 3000u);
  for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_EQ(on.seqs[i], i) << i;
  // ...and the batched flow is bit-identical to the per-item flow.
  EXPECT_EQ(on.seqs, off.seqs);
  EXPECT_TRUE(on.eos);
  EXPECT_TRUE(off.eos);
  ASSERT_EQ(on.outcomes.size(), 2u);
  EXPECT_EQ(on.outcomes[0].cuts_created, on.outcomes[1].cuts_collapsed);
}

TEST(BatchLockstep, UndisturbedShardedFlowMatchesMigratedOne) {
  const LockstepResult plain = run_sharded(true, false);
  const LockstepResult moved = run_sharded(true, true);
  ASSERT_EQ(plain.seqs.size(), 3000u);
  EXPECT_EQ(plain.seqs, moved.seqs);
  EXPECT_TRUE(plain.eos);
  EXPECT_TRUE(moved.eos);
}

}  // namespace
}  // namespace infopipe
