// Control-event semantics tests (§2.2, §3.2, §4):
//  * events are delivered while a component is blocked in a push or pull,
//  * events queued during data processing are delivered as soon as the data
//    function finishes, never concurrently with it,
//  * local control flows upstream/downstream between adjacent components,
//  * broadcasts reach every component.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/infopipes.hpp"

namespace infopipe {
namespace {

constexpr int kEvProbe = kEventUser + 1;
constexpr int kEvNote = kEventUser + 2;

/// Sink that records the relative order of data items and control events.
class OrderRecordingSink : public PassiveSink {
 public:
  explicit OrderRecordingSink(std::string name)
      : PassiveSink(std::move(name)) {}

  std::vector<std::string> log;

 protected:
  void consume(Item x) override {
    log.push_back("item:" + std::to_string(x.seq));
  }
  void handle_event(const Event& e) override {
    if (e.type == kEvProbe) log.push_back("event");
  }
};

TEST(Events, BroadcastReachesEveryComponent) {
  rt::Runtime rtm;
  CountingSource src("src", 1);
  IdentityFunction fn("fn");
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> fn >> pump >> sink;
  Realization real(rtm, ch.pipeline());

  int heard = 0;
  class Probe : public IdentityFunction {
   public:
    explicit Probe(int* h) : IdentityFunction("probe"), heard_(h) {}
    void handle_event(const Event& e) override {
      if (e.type == kEvProbe) ++*heard_;
    }

   private:
    int* heard_;
  };
  // Rebuild with probes in several positions.
  rt::Runtime rtm2;
  CountingSource src2("src2", 1);
  Probe p1(&heard), p2(&heard);
  FreeRunningPump pump2("pump2");
  CollectorSink sink2("sink2");
  auto ch2 = src2 >> p1 >> pump2 >> p2 >> sink2;
  Realization real2(rtm2, ch2.pipeline());
  real2.post_event(Event{kEvProbe});
  rtm2.run();
  EXPECT_EQ(heard, 2);
}

TEST(Events, DeliveredWhileBlockedInPush) {
  // A pump blocked pushing into a full buffer must still handle control
  // events — the paper's marquee scenario.
  rt::Runtime rtm;
  CountingSource src("src", 100);
  FreeRunningPump fill("fill");
  Buffer buf("buf", 2, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 10.0);  // very slow: fill blocks quickly
  OrderRecordingSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(150));  // fill is now blocked (buffer full)
  EXPECT_GT(buf.stats().put_blocks, 0u);

  bool handled = false;
  class Flag : public IdentityFunction {
   public:
    Flag() : IdentityFunction("flag") {}
  };
  // Send a probe to the SOURCE-side section (hosted on the blocked thread).
  real.post_event_to(src, Event{kEvProbe});
  class SrcProbe {};
  // The source has no handler; use the buffer instead: flush it, which both
  // exercises dispatch on the blocked thread and unblocks the writer.
  (void)handled;
  real.post_event_to(buf, Event{kEventFlush});
  rtm.run_until(rt::milliseconds(200));
  // The flush emptied the buffer even though both adjacent pumps were busy
  // or blocked: the event handler ran on a thread blocked in push.
  EXPECT_GT(buf.stats().drops, 0u) << "flush did not run while blocked";
}

TEST(Events, DeliveredWhileBlockedInHandOff) {
  // The pump is blocked in a coroutine hand-off while that coroutine is
  // itself blocked pushing into a full buffer downstream. A targeted event
  // must still reach the pump (§3.2), on the pump's own blocked thread.
  rt::Runtime rtm;

  class ProbedPump : public FreeRunningPump {
   public:
    ProbedPump() : FreeRunningPump("pump") {}
    int probes = 0;

   protected:
    void handle_event(const Event& e) override {
      if (e.type == kEvProbe) ++probes;
      FreeRunningPump::handle_event(e);
    }
  };

  CountingSource src("src", 100);
  ProbedPump pump;
  LambdaActive active("active", [](const auto& pull, const auto& push) {
    for (;;) push(pull());
  });
  Buffer buf("buf", 2, FullPolicy::kBlock, EmptyPolicy::kBlock);
  ClockedPump drain("drain", 10.0);  // very slow: the buffer fills at once
  CountingSink sink("sink");
  auto ch = src >> pump >> active >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(150));
  ASSERT_GT(buf.stats().put_blocks, 0u) << "the coroutine never blocked";
  obs::Counter& blocked =
      rtm.metrics().counter("core.control_while_blocked");
  const std::uint64_t before = blocked.value();
  real.post_event_to(pump, Event{kEvProbe});
  rtm.run_until(rt::milliseconds(160));
  EXPECT_EQ(pump.probes, 1) << "the blocked pump missed its event";
  EXPECT_GT(blocked.value(), before);
  rtm.run();  // the flow still completes after the event
  EXPECT_EQ(sink.count(), 100u);
}

/// Consumer that posts an event to ITSELF while processing each item and
/// logs both.
class SelfPoker : public Consumer {
 public:
  explicit SelfPoker(std::vector<std::string>* log)
      : Consumer("poker"), log_(log) {}

 protected:
  void push(Item x) override {
    log_->push_back("push-begin:" + std::to_string(x.seq));
    broadcast(Event{kEvNote});  // queued, not handled inline
    log_->push_back("push-end:" + std::to_string(x.seq));
    push_next(std::move(x));
  }
  void handle_event(const Event& e) override {
    if (e.type == kEvNote) log_->push_back("note");
  }

 private:
  std::vector<std::string>* log_;
};

TEST(Events, QueuedDuringDataProcessingDeliveredAfter) {
  // A component posts an event to ITSELF while processing data; the handler
  // must run after the data function returns, never reentrantly.
  rt::Runtime rtm;
  std::vector<std::string> log;

  CountingSource src("src", 2);
  // One item per fire: the per-item reference for the burst twin below.
  FreeRunningPump pump(PumpSpec{.name = "pump", .max_batch = 1});
  SelfPoker poker(&log);
  CollectorSink sink("sink");
  auto ch = src >> pump >> poker >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  // Every push-begin is followed by its push-end before any "note" lands in
  // between (no reentrancy), and each note is delivered before the next data
  // item's processing starts (§3.2: "delivered as soon as the data
  // processing is done").
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0], "push-begin:0");
  EXPECT_EQ(log[1], "push-end:0");
  EXPECT_EQ(log[2], "note");
  EXPECT_EQ(log[3], "push-begin:1");
  EXPECT_EQ(log[4], "push-end:1");
  EXPECT_EQ(log[5], "note");
}

TEST(Events, QueuedDuringBurstDeliveredBeforeNextBurst) {
  // With the platform choosing the burst, a free-running pump moves 64
  // items per fire (kBurstCap): the events queued while the burst is
  // processed are delivered at the burst boundary — after the burst's last
  // item, before the next burst's first.
  rt::Runtime rtm;  // VirtualClock
  std::vector<std::string> log;
  constexpr std::uint64_t kN = 100;
  CountingSource src("src", kN);
  FreeRunningPump pump("pump");
  SelfPoker poker(&log);
  CollectorSink sink("sink");
  auto ch = src >> pump >> poker >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), kN);
  std::vector<std::string> expect;
  for (const auto& [first, end] :
       {std::pair<std::uint64_t, std::uint64_t>{0, kBurstCap},
        std::pair<std::uint64_t, std::uint64_t>{kBurstCap, kN}}) {
    for (std::uint64_t i = first; i < end; ++i) {
      expect.push_back("push-begin:" + std::to_string(i));
      expect.push_back("push-end:" + std::to_string(i));
    }
    for (std::uint64_t i = first; i < end; ++i) expect.push_back("note");
  }
  EXPECT_EQ(log, expect);
}

TEST(Events, LocalControlUpstream) {
  // The paper's resize scenario: the display tells the component directly
  // upstream about a new window size.
  rt::Runtime rtm;

  class Resizer : public FunctionComponent {
   public:
    Resizer() : FunctionComponent("resizer") {}
    int width = 0;

   protected:
    Item convert(Item x) override {
      x.kind = width;  // stamp current width on each frame
      return x;
    }
    void handle_event(const Event& e) override {
      if (e.type == kEventWindowResize) width = *e.get<int>();
    }
  };

  class ResizingDisplay : public PassiveSink {
   public:
    ResizingDisplay() : PassiveSink("display") {}
    std::vector<int> widths;

   protected:
    void consume(Item x) override {
      widths.push_back(x.kind);
      if (x.seq == 2) {
        // "User" resizes the window after the third frame.
        control_upstream(Event{kEventWindowResize, 640});
      }
    }
  };

  CountingSource src("src", 8);
  ClockedPump pump("pump", 100.0);
  Resizer resizer;
  ResizingDisplay display;
  auto ch = src >> pump >> resizer >> display;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(display.widths.size(), 8u);
  EXPECT_EQ(display.widths[0], 0);
  EXPECT_EQ(display.widths[2], 0);
  // The resize lands between pump cycles; later frames carry the new width.
  EXPECT_EQ(display.widths[4], 640);
  EXPECT_EQ(display.widths[7], 640);
}

TEST(Events, LocalControlDownstreamFrameRelease) {
  // The paper's decoder scenario, §2.2: a decoder passes frames downstream
  // that it still needs as reference frames; a downstream component tells it
  // when the shared frame can be released.
  rt::Runtime rtm;

  class RefDecoder : public FunctionComponent {
   public:
    RefDecoder() : FunctionComponent("decoder") {}
    std::vector<Item> refs;      // frames still referenced
    int releases_handled = 0;

   protected:
    Item convert(Item x) override {
      Item frame = Item::of<std::string>("frame" + std::to_string(x.seq));
      frame.seq = x.seq;
      refs.push_back(frame);  // keep as reference
      return frame;           // share it downstream
    }
    void handle_event(const Event& e) override {
      if (e.type == kEventFrameRelease) {
        const auto seq = static_cast<std::uint64_t>(*e.get<int>());
        std::erase_if(refs, [seq](const Item& f) { return f.seq <= seq; });
        ++releases_handled;
      }
    }
  };

  class ReleasingSink : public PassiveSink {
   public:
    ReleasingSink() : PassiveSink("sink") {}
    int consumed = 0;

   protected:
    void consume(Item x) override {
      ++consumed;
      // Done with everything up to this frame.
      control_upstream(Event{kEventFrameRelease, static_cast<int>(x.seq)});
    }
  };

  CountingSource src("src", 5);
  ClockedPump pump("pump", 100.0);
  RefDecoder dec;
  ReleasingSink sink;
  auto ch = src >> pump >> dec >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(sink.consumed, 5);
  EXPECT_EQ(dec.releases_handled, 5);
  EXPECT_TRUE(dec.refs.empty()) << "reference frames leaked";
}

TEST(Events, EventListenerSeesBroadcastsIncludingEos) {
  rt::Runtime rtm;
  CountingSource src("src", 2);
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  std::vector<int> seen;
  real.set_event_listener([&](const Event& e) { seen.push_back(e.type); });
  real.start();
  rtm.run();
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen.front(), kEventStart);
  EXPECT_EQ(seen.back(), kEventEndOfStream);
}

TEST(Events, ControlReachesCoroutineHostedComponent) {
  // A component running as a coroutine (active style) receives control on
  // its own thread, serialized with its data processing.
  rt::Runtime rtm;

  class TogglingActive : public ActiveComponent {
   public:
    TogglingActive() : ActiveComponent("toggler") {}
    int marker = 0;

   protected:
    void run() override {
      for (;;) {
        Item x = pull_prev();
        x.kind = marker;
        push_next(std::move(x));
      }
    }
    void handle_event(const Event& e) override {
      if (e.type == kEvProbe) marker = *e.get<int>();
    }
  };

  CountingSource src("src", 20);
  ClockedPump pump("pump", 100.0);
  TogglingActive act;
  CollectorSink sink("sink");
  auto ch = src >> pump >> act >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(55));  // ~6 items through
  real.post_event_to(act, Event{kEvProbe, 7});
  rtm.run();
  ASSERT_EQ(sink.count(), 20u);
  EXPECT_EQ(sink.arrivals()[2].item.kind, 0);
  EXPECT_EQ(sink.arrivals()[15].item.kind, 7)
      << "control event did not reach the coroutine";
}

}  // namespace
}  // namespace infopipe
