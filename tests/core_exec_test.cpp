// End-to-end execution tests for realized pipelines: the §3.3 claim that a
// component's activity style is transparent — any style, used in push or
// pull mode, produces the identical external behaviour — plus lifecycle,
// buffering and end-of-stream semantics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "core/infopipes.hpp"

// Counting global allocator for the HandoffCost allocation cases: counts
// operator new calls on this OS thread while a test opens its window. Every
// user-level thread of a Runtime runs on the thread that called run(), so the
// count covers the whole pipeline.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

// GCC cannot see that the replaced new and delete pair malloc with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace infopipe {
namespace {

Item sum2(Item a, Item b) {
  Item y = Item::token();
  y.seq = a.seq;                     // keep the first fragment's seq
  y.kind = static_cast<int>(a.seq + b.seq);  // carries the combined value
  return y;
}

std::vector<std::uint64_t> iota_seqs(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------- style transparency: the defragmenter in every style/mode ----------

enum class StyleKind { kConsumer, kProducer, kActive };
enum class Position { kPushSide, kPullSide };

struct StyleCase {
  StyleKind style;
  Position pos;
  int expected_threads;
};

class StyleTransparency
    : public ::testing::TestWithParam<StyleCase> {};

std::unique_ptr<Component> make_defrag(StyleKind k) {
  switch (k) {
    case StyleKind::kConsumer:
      return std::make_unique<DefragmenterConsumer>("defrag", sum2);
    case StyleKind::kProducer:
      return std::make_unique<DefragmenterProducer>("defrag", sum2);
    case StyleKind::kActive:
      return std::make_unique<DefragmenterActive>("defrag", sum2);
  }
  return nullptr;
}

TEST_P(StyleTransparency, DefragmenterBehavesIdentically) {
  const StyleCase& c = GetParam();
  rt::Runtime rtm;
  CountingSource src("src", 10);  // seq 0..9 -> pairs (0,1),(2,3),...
  CollectorSink sink("sink");
  FreeRunningPump pump("pump");
  std::unique_ptr<Component> defrag = make_defrag(c.style);

  Pipeline p;
  if (c.pos == Position::kPushSide) {
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, *defrag, 0);
    p.connect(*defrag, 0, sink, 0);
  } else {
    p.connect(src, 0, *defrag, 0);
    p.connect(*defrag, 0, pump, 0);
    p.connect(pump, 0, sink, 0);
  }
  Realization real(rtm, p);
  EXPECT_EQ(static_cast<int>(real.thread_count()), c.expected_threads);

  real.start();
  rtm.run();

  // External behaviour is identical in every style and mode: 5 outputs whose
  // kind fields are the pairwise sums 1, 5, 9, 13, 17.
  ASSERT_EQ(sink.count(), 5u) << "style/mode changed the external behaviour";
  std::vector<int> kinds;
  for (const auto& a : sink.arrivals()) kinds.push_back(a.item.kind);
  EXPECT_EQ(kinds, (std::vector<int>{1, 5, 9, 13, 17}));
  EXPECT_TRUE(sink.eos_seen());
  EXPECT_FALSE(pump.running());  // pump stopped itself at end-of-stream
}

INSTANTIATE_TEST_SUITE_P(
    AllStylesBothModes, StyleTransparency,
    ::testing::Values(
        // Figure 4a: passive consumer, native push mode, direct call.
        StyleCase{StyleKind::kConsumer, Position::kPushSide, 1},
        // Figure 8b: consumer adapted to pull mode via a coroutine.
        StyleCase{StyleKind::kConsumer, Position::kPullSide, 2},
        // Figure 8a: producer adapted to push mode via a coroutine.
        StyleCase{StyleKind::kProducer, Position::kPushSide, 2},
        // Figure 4b: passive producer, native pull mode, direct call.
        StyleCase{StyleKind::kProducer, Position::kPullSide, 1},
        // Figure 6a/6b: active object, coroutine in either mode.
        StyleCase{StyleKind::kActive, Position::kPushSide, 2},
        StyleCase{StyleKind::kActive, Position::kPullSide, 2}),
    [](const ::testing::TestParamInfo<StyleCase>& info) {
      std::string s;
      switch (info.param.style) {
        case StyleKind::kConsumer: s = "Consumer"; break;
        case StyleKind::kProducer: s = "Producer"; break;
        case StyleKind::kActive: s = "Active"; break;
      }
      s += info.param.pos == Position::kPushSide ? "PushMode" : "PullMode";
      return s;
    });

// The fragmenter duals: one input becomes two outputs in either style/mode.
TEST(StyleTransparencyFragmenter, ConsumerAndProducerMatch) {
  auto split = [](Item x) {
    Item a = Item::token(static_cast<int>(x.seq) * 2);
    Item b = Item::token(static_cast<int>(x.seq) * 2 + 1);
    return std::make_pair(a, b);
  };
  for (int variant = 0; variant < 4; ++variant) {
    rt::Runtime rtm;
    CountingSource src("src", 5);
    CollectorSink sink("sink");
    FreeRunningPump pump("pump");
    std::unique_ptr<Component> frag;
    if (variant / 2 == 0) {
      frag = std::make_unique<FragmenterConsumer>("frag", split);
    } else {
      frag = std::make_unique<FragmenterProducer>("frag", split);
    }
    Pipeline p;
    if (variant % 2 == 0) {  // push side
      p.connect(src, 0, pump, 0);
      p.connect(pump, 0, *frag, 0);
      p.connect(*frag, 0, sink, 0);
    } else {  // pull side
      p.connect(src, 0, *frag, 0);
      p.connect(*frag, 0, pump, 0);
      p.connect(pump, 0, sink, 0);
    }
    Realization real(rtm, p);
    real.start();
    rtm.run();
    ASSERT_EQ(sink.count(), 10u) << "variant " << variant;
    std::vector<int> kinds;
    for (const auto& a : sink.arrivals()) kinds.push_back(a.item.kind);
    EXPECT_EQ(kinds, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}))
        << "variant " << variant;
  }
}

TEST(Exec, FlushMayEmitLeftoversBeforeEos) {
  // A consumer with inter-item state can emit its leftover through the
  // normal output path when the stream ends — the glue calls flush() before
  // forwarding the EOS marker.
  class EmittingDefrag : public Consumer {
   public:
    EmittingDefrag() : Consumer("emit-defrag") {}

   protected:
    void push(Item x) override {
      if (saved_) {
        Item y = Item::token(saved_->kind + x.kind);
        saved_.reset();
        push_next(std::move(y));
      } else {
        saved_ = std::move(x);
      }
    }
    void flush() override {
      if (saved_) {
        Item y = std::move(*saved_);
        y.kind += 1000;  // mark it as a flushed leftover
        saved_.reset();
        push_next(std::move(y));
      }
    }

   private:
    std::optional<Item> saved_;
  };

  rt::Runtime rtm;
  std::vector<Item> items;
  for (int v : {1, 2, 3}) items.push_back(Item::token(v));  // odd count
  VectorSource src("src", std::move(items));
  FreeRunningPump pump("pump");
  EmittingDefrag defrag;
  CollectorSink sink("sink");
  auto ch = src >> pump >> defrag >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.arrivals()[0].item.kind, 3);     // 1+2
  EXPECT_EQ(sink.arrivals()[1].item.kind, 1003);  // flushed leftover 3
  EXPECT_TRUE(sink.eos_seen()) << "EOS still arrives after the flush output";
}

TEST(Exec, RoutingSwitchCountsOutOfRangeDrops) {
  class OddDropper : public RoutingSwitch {
   public:
    OddDropper() : RoutingSwitch("odd-dropper", 1) {}

   protected:
    int select(const Item& x) override {
      return x.seq % 2 == 0 ? 0 : -1;  // odd items go nowhere
    }
  };
  rt::Runtime rtm;
  CountingSource src("src", 10);
  FreeRunningPump pump("pump");
  OddDropper sw;
  CollectorSink sink("sink");
  Pipeline p;
  p.connect(src, 0, pump, 0);
  p.connect(pump, 0, sw, 0);
  p.connect(sw, 0, sink, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_EQ(sw.dropped(), 5u);
}

TEST(Exec, PumpNilForwardPolicyDeliversNils) {
  // NilPolicy::kForward: the driver passes nil items downstream (the audio
  // device uses this to count underruns).
  class NilCountingSink : public PassiveSink {
   public:
    NilCountingSink() : PassiveSink("nilsink") {}
    int data = 0;

   protected:
    void consume(Item x) override {
      if (x.is_data()) ++data;
    }
  };
  rt::Runtime rtm;
  CountingSource src("src", 3);
  ClockedPump fill("fill", 10.0);  // slow producer
  Buffer buf("buf", 4, FullPolicy::kBlock, EmptyPolicy::kNil);
  ClockedPump drain("drain", 100.0);
  drain.set_nil_policy(Driver::NilPolicy::kForward);
  NilCountingSink sink;
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(500));
  EXPECT_EQ(sink.data, 3);
  // Forwarded nils were filtered out by the sink glue (non-data items never
  // reach consume() of passive sinks) but the pump did cycle on them.
  EXPECT_GT(drain.items_pumped(), 3u);
  real.shutdown();
  rtm.run();
}

// ---------- longer mixed chains -------------------------------------------------

TEST(Exec, MixedStyleChainAcrossBufferAndTwoPumps) {
  rt::Runtime rtm;
  CountingSource src("src", 20);
  DefragmenterConsumer defrag("defrag", sum2);  // pull side -> coroutine
  FreeRunningPump pump1("pump1");
  LambdaFunction twice("twice", [](Item x) {
    x.kind *= 2;
    return x;
  });
  Buffer buf("buf", 4);
  DefragmenterActive defrag2("defrag2", sum2);  // active -> coroutine
  FreeRunningPump pump2("pump2");
  CollectorSink sink("sink");

  auto ch = src >> defrag >> pump1 >> twice >> buf >> defrag2 >> pump2 >> sink;
  Realization real(rtm, ch.pipeline());
  // section 1: pump1 + defrag coroutine; section 2: pump2 + defrag2
  // coroutine => 4 threads.
  EXPECT_EQ(real.thread_count(), 4u);
  real.start();
  rtm.run();
  // 20 -> defrag -> 10 -> buf -> defrag2 -> 5 items.
  ASSERT_EQ(sink.count(), 5u);
  EXPECT_TRUE(sink.eos_seen());
}

TEST(Exec, DeepFunctionChainSingleThread) {
  rt::Runtime rtm;
  CountingSource src("src", 50);
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  std::vector<std::unique_ptr<LambdaFunction>> fns;
  Pipeline p;
  p.connect(src, 0, pump, 0);
  Component* prev = &pump;
  for (int i = 0; i < 10; ++i) {
    fns.push_back(std::make_unique<LambdaFunction>(
        "f" + std::to_string(i), [](Item x) {
          ++x.kind;
          return x;
        }));
    p.connect(*prev, 0, *fns.back(), 0);
    prev = fns.back().get();
  }
  p.connect(*prev, 0, sink, 0);
  Realization real(rtm, p);
  EXPECT_EQ(real.thread_count(), 1u);
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 50u);
  for (const auto& a : sink.arrivals()) EXPECT_EQ(a.item.kind, 10);
}

// ---------- coroutine hand-off cost (§4) --------------------------------------------

// Each hand-off wake switches straight from the waker to the woken thread,
// so one wake costs one context switch. These are counts, not times, so
// they hold on any host.

// Opens the allocation-counting window once `warm` items have arrived and
// closes it `measured` items later, so start-up allocations (first thread
// entries, pool slabs, buffer rings growing to their working size) stay out.
class AllocWindowSink : public PassiveSink {
 public:
  AllocWindowSink(std::uint64_t warm, std::uint64_t measured)
      : PassiveSink("sink"), warm_(warm), end_(warm + measured) {}
  ~AllocWindowSink() override { t_count_allocs = false; }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double allocs_per_item() const {
    return static_cast<double>(allocs_) / static_cast<double>(end_ - warm_);
  }

 protected:
  void consume(Item) override {
    if (++n_ == warm_) {
      t_allocs = 0;
      t_count_allocs = true;
    } else if (n_ == end_) {
      t_count_allocs = false;
      allocs_ = t_allocs;
    }
  }

 private:
  std::uint64_t warm_;
  std::uint64_t end_;
  std::uint64_t n_ = 0;
  std::uint64_t allocs_ = 0;
};

/// The Figure 9e consumer (push style): forwards every item.
class Forward final : public Consumer {
 public:
  using Consumer::Consumer;

 protected:
  void push(Item x) override { push_next(std::move(x)); }
};

/// The Figure 9e producer (pull style): returns every item.
class PassThrough final : public Producer {
 public:
  using Producer::Producer;

 protected:
  Item pull() override { return pull_prev(); }
};

/// An active stage running the paper's `while (running)` pull/push loop.
class Relay final : public ActiveComponent {
 public:
  using ActiveComponent::ActiveComponent;

 protected:
  void run() override {
    for (;;) push_next(pull_prev());
  }
};

TEST(HandoffCost, SteadyStateHandOffAllocatesNothing) {
  constexpr std::uint64_t kWarm = 1000;
  constexpr std::uint64_t kMeasured = 4000;
  // The source outlasts the window by more than the buffers hold, so the
  // end-of-stream broadcast (an event, which may allocate) falls outside.
  constexpr std::uint64_t kItems = kWarm + kMeasured + 1000;
  {
    // The hand-off pipeline of BM_CoroutineHandoffPerItem: one coroutine.
    rt::Runtime rtm;
    CountingSource src("src", kItems);
    FreeRunningPump pump("pump");
    Relay active("active");
    AllocWindowSink sink(kWarm, kMeasured);
    auto ch = src >> pump >> active >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    ASSERT_EQ(sink.count(), kItems);
    EXPECT_EQ(sink.allocs_per_item(), 0.0) << "hand-off pipeline";
  }
  {
    // The coroutine_chain shape: a batched pump fills a buffer, the Figure
    // 9e section (three coroutines) moves it into a second buffer, and a
    // pump drains that into an active stage (two more).
    rt::Runtime rtm;
    CountingSource src("src", kItems);
    FreeRunningPump gen(PumpSpec{.name = "gen", .max_batch = 64});
    Buffer ingress("ingress", 256);
    Forward consumer("consumer");
    FreeRunningPump pump("pump");
    PassThrough producer("producer");
    Buffer mid("mid", 64);
    FreeRunningPump pump2("pump2");
    Relay active("active");
    AllocWindowSink sink(kWarm, kMeasured);
    auto ch = src >> gen >> ingress >> consumer >> pump >> producer >> mid >>
              pump2 >> active >> sink;
    Realization real(rtm, ch.pipeline());
    ASSERT_EQ(real.thread_count(), 6u);
    real.start();
    rtm.run();
    ASSERT_EQ(sink.count(), kItems);
    EXPECT_EQ(sink.allocs_per_item(), 0.0) << "coroutine_chain shape";
  }
}

TEST(HandoffCost, CoroutineCarriesEachCyclesDeadline) {
  // §4: the pump's constraint governs its whole coroutine set, cycle by
  // cycle — the coroutine runs each item under the deadline of the fire
  // that pushed it, not the one that first started its main.
  rt::Runtime rtm;  // VirtualClock
  CountingSource src("src", 5);
  ClockedPump pump("pump", 1000.0);  // fires at t = 0, 1, 2, 3, 4 ms
  std::vector<rt::Time> deadlines;
  LambdaActive active("active", [&](const auto& pull, const auto& push) {
    for (;;) {
      Item x = pull();
      deadlines.push_back(rtm.thread(rtm.current())->effective_deadline());
      push(std::move(x));
    }
  });
  CountingSink sink("sink");
  auto ch = src >> pump >> active >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 5u);
  EXPECT_EQ(deadlines,
            (std::vector<rt::Time>{0, rt::milliseconds(1), rt::milliseconds(2),
                                   rt::milliseconds(3), rt::milliseconds(4)}));
}

TEST(HandoffCost, ActiveStageCostsTwoSwitchesPerItem) {
  constexpr std::uint64_t kItems = 2000;
  rt::Runtime rtm;  // VirtualClock
  CountingSource src("src", kItems);
  FreeRunningPump pump("pump");
  LambdaActive active("active", [](const auto& pull, const auto& push) {
    for (;;) push(pull());
  });
  CountingSink sink("sink");
  auto ch = src >> pump >> active >> sink;
  Realization real(rtm, ch.pipeline());
  ASSERT_EQ(real.thread_count(), 2u);
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), kItems);
  // One hand-off per item: the item wakes the coroutine and its next
  // request for input wakes the pump, one switch each (through the
  // scheduler context they cost four).
  EXPECT_LE(rtm.stats().context_switches, 2 * kItems + 16);
}

TEST(HandoffCost, Figure9eChainCostsOneSwitchPerMessage) {
  constexpr std::uint64_t kItems = 1000;
  rt::Runtime rtm;  // VirtualClock
  CountingSource src("src", 4 * kItems);
  DefragmenterConsumer consumer("consumer", sum2);  // pull side: coroutine
  FreeRunningPump pump("pump");
  DefragmenterProducer producer("producer", sum2);  // push side: coroutine
  CountingSink sink("sink");
  auto ch = src >> consumer >> pump >> producer >> sink;
  Realization real(rtm, ch.pipeline());
  ASSERT_EQ(real.thread_count(), 3u);
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), kItems);
  // Per sink item the pump runs two cycles, and each cycle is two pull
  // wakes (request, item) plus two push wakes (item, next request): 8
  // wakes, one switch each (16 through the scheduler).
  EXPECT_LE(rtm.stats().context_switches, 8 * kItems + 16);
}

// ---------- buffer policies --------------------------------------------------------

TEST(BufferPolicy, BlockingBufferDeliversEverything) {
  rt::Runtime rtm;
  CountingSource src("src", 100);
  FreeRunningPump fill("fill");
  Buffer buf("buf", 3, FullPolicy::kBlock, EmptyPolicy::kBlock);
  FreeRunningPump drain("drain");
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 100u);
  EXPECT_EQ(sink.seqs(), iota_seqs(100));
  EXPECT_EQ(buf.stats().drops, 0u);
  EXPECT_GT(buf.stats().put_blocks + buf.stats().take_blocks, 0u)
      << "a capacity-3 buffer between free-running pumps must block";
  EXPECT_LE(buf.stats().max_fill, 3u);
}

TEST(BufferPolicy, DropNewestLosesItemsUnderOverload) {
  rt::Runtime rtm;
  CountingSource src("src", 100);
  // Fast producer, slow consumer: producer at 1000 Hz, consumer at 100 Hz.
  ClockedPump fill("fill", 1000.0);
  Buffer buf("buf", 5, FullPolicy::kDropNewest, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 100.0);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::seconds(2));
  EXPECT_GT(buf.stats().drops, 0u);
  // Drop-newest keeps the oldest items: arrivals are in order without gaps
  // at the front.
  ASSERT_GE(sink.count(), 5u);
  EXPECT_EQ(sink.arrivals()[0].item.seq, 0u);
  EXPECT_EQ(sink.arrivals()[4].item.seq, 4u);
}

TEST(BufferPolicy, DropOldestKeepsFreshest) {
  rt::Runtime rtm;
  CountingSource src("src", 100);
  ClockedPump fill("fill", 1000.0);
  Buffer buf("buf", 5, FullPolicy::kDropOldest, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 10.0);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::seconds(3));
  EXPECT_GT(buf.stats().drops, 0u);
  // Under drop-oldest, late arrivals should include high sequence numbers.
  ASSERT_FALSE(sink.arrivals().empty());
  EXPECT_GT(sink.arrivals().back().item.seq, 50u);
}

TEST(BufferPolicy, NilPolicyReturnsNilAndPumpSkips) {
  rt::Runtime rtm;
  CountingSource src("src", 3);
  ClockedPump fill("fill", 10.0);  // slow producer
  Buffer buf("buf", 5, FullPolicy::kBlock, EmptyPolicy::kNil);
  ClockedPump drain("drain", 1000.0);  // fast consumer: mostly sees empty
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::seconds(1));
  EXPECT_EQ(sink.count(), 3u);  // nils skipped, all real items arrive
  EXPECT_GT(buf.stats().nil_returns, 0u);
}

// ---------- clocked pump timing -------------------------------------------------

TEST(Timing, ClockedPumpPacesDeliveries) {
  rt::Runtime rtm;
  CountingSource src("src", 10);
  ClockedPump pump("pump", 100.0);  // 10 ms period
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 10u);
  for (std::size_t i = 1; i < sink.arrivals().size(); ++i) {
    const rt::Time dt = sink.arrivals()[i].at - sink.arrivals()[i - 1].at;
    EXPECT_EQ(dt, rt::milliseconds(10)) << "cycle " << i;
  }
}

TEST(Timing, OverloadedClockedPumpCountsDeadlineMisses) {
  rt::Runtime rtm;
  CountingSource src("src", 50);
  ClockedPump pump("pump", 100.0);       // 10 ms period...
  SimulatedWork work("work", rt::milliseconds(15));  // ...15 ms per item
  CollectorSink sink("sink");
  auto ch = src >> pump >> work >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 50u);
  // Every cycle after the first runs behind schedule.
  EXPECT_GE(pump.deadline_misses(), 40u);

  // A pump with headroom misses nothing.
  rt::Runtime rtm2;
  CountingSource src2("src2", 50);
  ClockedPump pump2("pump2", 100.0);
  SimulatedWork light("light", rt::milliseconds(2));
  CollectorSink sink2("sink2");
  auto ch2 = src2 >> pump2 >> light >> sink2;
  Realization real2(rtm2, ch2.pipeline());
  real2.start();
  rtm2.run();
  EXPECT_EQ(pump2.deadline_misses(), 0u);
}

TEST(Timing, EosStopsClockedPumpAndQuiescesRuntime) {
  rt::Runtime rtm;
  CountingSource src("src", 3);
  ClockedPump pump("pump", 1000.0);
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();  // must return (quiescent) shortly after EOS
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_TRUE(sink.eos_seen());
  EXPECT_TRUE(real.finished());
}

// ---------- lifecycle: stop / restart / shutdown ----------------------------------

TEST(Lifecycle, StopPausesAndRestartResumes) {
  rt::Runtime rtm;
  CountingSource src("src", 1000000);
  ClockedPump pump("pump", 100.0);
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(95));  // ~10 items
  const std::size_t first_batch = sink.count();
  EXPECT_GE(first_batch, 9u);
  real.stop();
  rtm.run_until(rt::milliseconds(500));
  const std::size_t after_stop = sink.count();
  EXPECT_LE(after_stop, first_batch + 1) << "items kept flowing after STOP";
  real.start();
  rtm.run_until(rt::milliseconds(1000));
  EXPECT_GT(sink.count(), after_stop + 10) << "restart did not resume";
}

TEST(Lifecycle, ShutdownTerminatesAllThreads) {
  rt::Runtime rtm;
  CountingSource src("src", 1000000);
  DefragmenterActive defrag("defrag", sum2);  // coroutine involved
  FreeRunningPump pump("pump");
  Buffer buf("buf", 2);
  FreeRunningPump pump2("pump2");
  CollectorSink sink("sink");
  auto ch = src >> defrag >> pump >> buf >> pump2 >> sink;
  Realization real(rtm, ch.pipeline());
  EXPECT_EQ(rtm.live_threads(), real.thread_count());
  real.start();
  rtm.run_until(rt::milliseconds(1));
  real.shutdown();
  rtm.run();
  EXPECT_EQ(rtm.live_threads(), 0u);
}

TEST(Lifecycle, ComponentsReusableAfterRealizationDestroyed) {
  rt::Runtime rtm;
  CountingSource src("src", 4);
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  {
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    EXPECT_EQ(sink.count(), 4u);
    real.shutdown();
    rtm.run();
  }
  // Same components, fresh realization.
  sink.clear();
  src.reset();
  Realization real2(rtm, ch.pipeline());
  real2.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 4u);
}

// ---------- tees ---------------------------------------------------------------------

TEST(Tees, MulticastSharesPayloadAcrossBranches) {
  rt::Runtime rtm;
  VectorSource src("src", [] {
    std::vector<Item> v;
    for (int i = 0; i < 6; ++i) {
      Item x = Item::of<std::string>("payload-" + std::to_string(i));
      x.seq = static_cast<std::uint64_t>(i);
      v.push_back(std::move(x));
    }
    return v;
  }());
  FreeRunningPump pump("pump");
  MulticastTee tee("tee", 2);
  CollectorSink a("a");
  CollectorSink b("b");
  Pipeline p;
  p.connect(src, 0, pump, 0);
  p.connect(pump, 0, tee, 0);
  p.connect(tee, 0, a, 0);
  p.connect(tee, 1, b, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  ASSERT_EQ(a.count(), 6u);
  ASSERT_EQ(b.count(), 6u);
  EXPECT_TRUE(a.eos_seen());
  EXPECT_TRUE(b.eos_seen());
  // Copies share one payload (no deep copy in the tee).
  EXPECT_EQ(a.arrivals()[0].item.payload<std::string>(),
            b.arrivals()[0].item.payload<std::string>());
}

class EvenOddSwitch : public RoutingSwitch {
 public:
  EvenOddSwitch() : RoutingSwitch("evenodd", 2) {}

 protected:
  int select(const Item& x) override {
    return static_cast<int>(x.seq % 2);
  }
};

TEST(Tees, RoutingSwitchPartitionsFlow) {
  rt::Runtime rtm;
  CountingSource src("src", 10);
  FreeRunningPump pump("pump");
  EvenOddSwitch sw;
  CollectorSink even("even");
  CollectorSink odd("odd");
  Pipeline p;
  p.connect(src, 0, pump, 0);
  p.connect(pump, 0, sw, 0);
  p.connect(sw, 0, even, 0);
  p.connect(sw, 1, odd, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  EXPECT_EQ(even.seqs(), (std::vector<std::uint64_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(odd.seqs(), (std::vector<std::uint64_t>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(even.eos_seen());
  EXPECT_TRUE(odd.eos_seen());
}

TEST(Tees, MergeInterleavesAndForwardsEosOnceAllEnd) {
  rt::Runtime rtm;
  CountingSource s1("s1", 5);
  CountingSource s2("s2", 7);
  ClockedPump p1("p1", 100.0);
  ClockedPump p2("p2", 100.0);
  MergeTee merge("merge", 2);
  CollectorSink sink("sink");
  Pipeline p;
  p.connect(s1, 0, p1, 0);
  p.connect(s2, 0, p2, 0);
  p.connect(p1, 0, merge, 0);
  p.connect(p2, 0, merge, 1);
  p.connect(merge, 0, sink, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 12u);
  EXPECT_TRUE(sink.eos_seen());
}

class TakeFirst : public CombineTee {
 public:
  TakeFirst() : CombineTee("mix", 2) {}

 protected:
  Item combine(std::vector<Item> xs) override {
    Item y = Item::token();
    y.kind = static_cast<int>(xs[0].seq + xs[1].seq);
    return y;
  }
};

TEST(Tees, CombinePullsOneFromEachInput) {
  rt::Runtime rtm;
  CountingSource s1("s1", 5);
  CountingSource s2("s2", 5);
  TakeFirst mix;
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  Pipeline p;
  p.connect(s1, 0, mix, 0);
  p.connect(s2, 0, mix, 1);
  p.connect(mix, 0, pump, 0);
  p.connect(pump, 0, sink, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 5u);
  std::vector<int> kinds;
  for (const auto& a : sink.arrivals()) kinds.push_back(a.item.kind);
  EXPECT_EQ(kinds, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Tees, BalancingSwitchServesWhoeverPulls) {
  rt::Runtime rtm;
  CountingSource src("src", 20);
  BalancingSwitch sw("sw", 2);
  ClockedPump p1("p1", 100.0);
  ClockedPump p2("p2", 100.0);
  CollectorSink s1("s1");
  CollectorSink s2("s2");
  Pipeline p;
  p.connect(src, 0, sw, 0);
  p.connect(sw, 0, p1, 0);
  p.connect(sw, 1, p2, 0);
  p.connect(p1, 0, s1, 0);
  p.connect(p2, 0, s2, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  // Both consumers got items; together they saw the whole flow exactly once.
  EXPECT_GT(s1.count(), 0u);
  EXPECT_GT(s2.count(), 0u);
  std::vector<std::uint64_t> all = s1.seqs();
  const std::vector<std::uint64_t> other = s2.seqs();
  all.insert(all.end(), other.begin(), other.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, iota_seqs(20));
}

}  // namespace
}  // namespace infopipe
