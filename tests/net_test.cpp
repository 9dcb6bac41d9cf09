// Tests for the distribution substrate: simulated transport, netpipes with
// marshalling, location typing, and the remote node protocol (§2.4).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/infopipes.hpp"
#include "net/netpipe.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "net/typespec_wire.hpp"

namespace infopipe::net {
namespace {

// ---------- Typespec wire format ------------------------------------------------

TEST(TypespecWire, RoundTripsAllValueKinds) {
  Typespec t;
  t.set("flag", true);
  t.set("count", std::int64_t{-42});
  t.set("rate", 29.97);
  t.set("name", std::string("video|with\x1Fseparators\\and backslash"));
  t.set("range", Range{0.5, 144.25});
  t.set("formats", StringSet{"mpeg1", "h|261", "raw"});
  const Typespec back = unmarshal_typespec(marshal_typespec(t));
  EXPECT_EQ(back, t);
}

TEST(TypespecWire, EmptySpecRoundTrips) {
  EXPECT_EQ(unmarshal_typespec(marshal_typespec(Typespec{})), Typespec{});
}

TEST(TypespecWire, MalformedInputThrows) {
  EXPECT_THROW((void)unmarshal_typespec("garbage"), RemoteError);
}

// With real sockets (ip_netreal) this parser faces untrusted bytes. Every
// mutilation must surface as RemoteError — never another exception type
// (std::stoll's invalid_argument/out_of_range leaking through), never a
// crash or over-read.

TEST(TypespecWire, EveryTruncationFailsCleanlyOrParses) {
  Typespec t;
  t.set("rate", 29.97);
  t.set("count", std::int64_t{1234567});
  t.set("range", Range{-1.5, 99.25});
  t.set("formats", StringSet{"mpeg1", "raw"});
  const std::string wire = marshal_typespec(t);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    try {
      (void)unmarshal_typespec(wire.substr(0, n));  // prefix
    } catch (const RemoteError&) {
    }
    try {
      (void)unmarshal_typespec(wire.substr(n));  // suffix
    } catch (const RemoteError&) {
    }
  }
}

TEST(TypespecWire, OversizedNumbersAreRemoteErrors) {
  // std::stoll/std::stod would throw std::out_of_range here.
  EXPECT_THROW((void)unmarshal_typespec("k\x1Fi:999999999999999999999999\x1E"),
               RemoteError);
  EXPECT_THROW((void)unmarshal_typespec("k\x1F"
                                        "d:1e99999999\x1E"),
               RemoteError);
  EXPECT_THROW((void)unmarshal_typespec("k\x1Fi:12x\x1E"), RemoteError);
  EXPECT_THROW((void)unmarshal_typespec("k\x1Fr:1.0;2.0\x1E"), RemoteError);
  EXPECT_THROW((void)unmarshal_typespec("k\x1Fz:??\x1E"), RemoteError);
}

TEST(TypespecWire, BitFlippedInputNeverCrashes) {
  Typespec t;
  t.set("flag", true);
  t.set("count", std::int64_t{-42});
  t.set("rate", 29.97);
  t.set("name", std::string("video"));
  t.set("range", Range{0.5, 144.25});
  const std::string wire = marshal_typespec(t);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = wire;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      try {
        (void)unmarshal_typespec(bad);  // parse or RemoteError, nothing else
      } catch (const RemoteError&) {
      }
    }
  }
}

// ---------- SimLink ---------------------------------------------------------------

TEST(SimLink, DeliversInOrderWithLatency) {
  rt::Runtime rtm;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1 byte/us
  cfg.base_latency = rt::milliseconds(5);
  cfg.jitter = 0;
  SimLink link(cfg);

  std::vector<std::pair<std::uint64_t, rt::Time>> got;
  const rt::ThreadId rx = rtm.spawn(
      "rx", rt::kPriorityData, [&](rt::Runtime& r, rt::Message m) {
        if (m.type != kMsgNetDeliver) return rt::CodeResult::kContinue;
        for (const Item& x : m.get<Burst>()->items()) {
          got.emplace_back(x.seq, r.now());
        }
        return rt::CodeResult::kContinue;
      });
  link.attach_receiver(rx);

  for (int i = 0; i < 3; ++i) {
    Item p = Item::token();
    p.seq = static_cast<std::uint64_t>(i);
    p.size_bytes = 1000;  // 1 ms serialization each
    link.send(rtm, std::move(p));
  }
  rtm.run();
  ASSERT_EQ(got.size(), 3u);
  // Packet i finishes serializing at (i+1) ms, arrives 5 ms later.
  EXPECT_EQ(got[0], std::make_pair(std::uint64_t{0}, rt::milliseconds(6)));
  EXPECT_EQ(got[1], std::make_pair(std::uint64_t{1}, rt::milliseconds(7)));
  EXPECT_EQ(got[2], std::make_pair(std::uint64_t{2}, rt::milliseconds(8)));
}

TEST(SimLink, DropsWhenQueueOverflows) {
  rt::Runtime rtm;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e3;  // 1 byte/ms: very slow
  cfg.queue_capacity_bytes = 3000;
  SimLink link(cfg);
  const rt::ThreadId rx = rtm.spawn("rx", rt::kPriorityData,
                                    [](rt::Runtime&, rt::Message) {
                                      return rt::CodeResult::kContinue;
                                    });
  link.attach_receiver(rx);
  for (int i = 0; i < 10; ++i) {
    Item p = Item::token();
    p.size_bytes = 1000;
    link.send(rtm, std::move(p));
  }
  EXPECT_GT(link.stats().dropped_congestion, 0u);
  EXPECT_LT(link.stats().delivered_scheduled, 10u);
}

TEST(SimLink, RandomLossIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    rt::Runtime rtm;
    LinkConfig cfg;
    cfg.random_loss = 0.5;
    cfg.seed = seed;
    SimLink link(cfg);
    const rt::ThreadId rx = rtm.spawn("rx", rt::kPriorityData,
                                      [](rt::Runtime&, rt::Message) {
                                        return rt::CodeResult::kContinue;
                                      });
    link.attach_receiver(rx);
    for (int i = 0; i < 100; ++i) {
      Item p = Item::token();
      p.size_bytes = 10;
      link.send(rtm, std::move(p));
    }
    return link.stats().dropped_random;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_GT(run(7), 10u);
  EXPECT_LT(run(7), 90u);
}

TEST(SimLink, QueueDepthDrainsOverTime) {
  rt::Runtime rtm;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1 byte/us
  cfg.queue_capacity_bytes = 1 << 20;
  SimLink link(cfg);
  const rt::ThreadId rx = rtm.spawn("rx", rt::kPriorityData,
                                    [](rt::Runtime&, rt::Message) {
                                      return rt::CodeResult::kContinue;
                                    });
  link.attach_receiver(rx);
  for (int i = 0; i < 4; ++i) {
    Item p = Item::token();
    p.size_bytes = 1000;  // 1 ms on the wire each
    link.send(rtm, std::move(p));
  }
  EXPECT_NEAR(static_cast<double>(link.queue_depth_bytes(rtm.now())), 4000.0,
              50.0);
  rtm.run_until(rt::milliseconds(2));
  EXPECT_NEAR(static_cast<double>(link.queue_depth_bytes(rtm.now())), 2000.0,
              50.0);
  rtm.run_until(rt::milliseconds(10));
  EXPECT_EQ(link.queue_depth_bytes(rtm.now()), 0u);
}

TEST(SimLink, JitterCanReorderAndStatsAddUp) {
  rt::Runtime rtm;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.base_latency = rt::milliseconds(5);
  cfg.jitter = rt::milliseconds(20);  // >> inter-send gap: reordering likely
  cfg.seed = 9;
  SimLink link(cfg);
  std::vector<std::uint64_t> order;
  const rt::ThreadId rx = rtm.spawn(
      "rx", rt::kPriorityData, [&](rt::Runtime&, rt::Message m) {
        if (m.type != kMsgNetDeliver) return rt::CodeResult::kContinue;
        for (const Item& x : m.get<Burst>()->items()) order.push_back(x.seq);
        return rt::CodeResult::kContinue;
      });
  link.attach_receiver(rx);
  for (int i = 0; i < 50; ++i) {
    Item p = Item::token();
    p.seq = static_cast<std::uint64_t>(i);
    p.size_bytes = 10;
    link.send(rtm, std::move(p));
    rtm.run_until(rtm.now() + rt::milliseconds(1));
  }
  rtm.run_until(rt::seconds(1));
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "20 ms jitter over 1 ms spacing must reorder something";
  EXPECT_EQ(link.stats().sent, 50u);
  EXPECT_EQ(link.stats().delivered_scheduled, 50u);
  EXPECT_EQ(link.stats().dropped_congestion, 0u);
}

TEST(SimLink, SetBandwidthIsSafeAgainstConcurrentSend) {
  // The adaptation experiments mutate the bandwidth live from another
  // kernel thread while the link's runtime serializes packets. The field
  // is atomic; under TSan this test is the proof.
  rt::Runtime rtm;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  SimLink link(cfg);
  const rt::ThreadId rx = rtm.spawn("rx", rt::kPriorityData,
                                    [](rt::Runtime&, rt::Message) {
                                      return rt::CodeResult::kContinue;
                                    });
  link.attach_receiver(rx);

  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    double bw = 1e6;
    while (!stop.load(std::memory_order_relaxed)) {
      link.set_bandwidth(bw);
      bw = bw >= 64e6 ? 1e6 : bw * 2;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    Item p = Item::token();
    p.size_bytes = 100;
    link.send(rtm, std::move(p));
    const double bw = link.bandwidth();
    EXPECT_GE(bw, 1e6);  // never a torn read
    EXPECT_LE(bw, 64e6);
  }
  stop.store(true, std::memory_order_relaxed);
  tuner.join();
  rtm.run();
}

// ---------- netpipe in a pipeline --------------------------------------------------

Item encode_string(const Item& x) {
  const auto* s = x.payload<std::string>();
  return s != nullptr ? Item::of_bytes(s->data(), s->size())
                      : Item::of_bytes(nullptr, 0);
}

Item decode_string(std::span<const std::uint8_t> b) {
  return Item::of<std::string>(std::string(b.begin(), b.end()));
}

struct NetPipeline {
  rt::Runtime rtm;
  std::vector<Item> payloads;
  VectorSource src;
  ClockedPump pump;
  MarshalFilter marshal;
  SimLink link;
  NetSender tx;
  NetReceiver rx;
  UnmarshalFilter unmarshal;
  FreeRunningPump pump2;  // unused unless needed
  CollectorSink sink;
  Pipeline pipe;

  explicit NetPipeline(LinkConfig cfg, int n = 10)
      : payloads([n] {
          std::vector<Item> v;
          for (int i = 0; i < n; ++i) {
            Item x = Item::of<std::string>("msg" + std::to_string(i));
            x.seq = static_cast<std::uint64_t>(i);
            v.push_back(std::move(x));
          }
          return v;
        }()),
        src("src", payloads),
        pump("pump", 100.0),
        marshal("marshal", encode_string, "text"),
        link(cfg),
        tx("tx", link, "producer-node"),
        rx("rx", link, "consumer-node"),
        unmarshal("unmarshal", decode_string, "text"),
        pump2("pump2"),
        sink("sink") {
    pipe.connect(src, 0, pump, 0);
    pipe.connect(pump, 0, marshal, 0);
    pipe.connect(marshal, 0, tx, 0);
    pipe.connect(rx, 0, unmarshal, 0);
    pipe.connect(unmarshal, 0, sink, 0);
  }
};

TEST(NetPipe, EndToEndDeliveryAcrossTheLink) {
  LinkConfig cfg;
  cfg.base_latency = rt::milliseconds(10);
  NetPipeline n(cfg);
  Realization real(n.rtm, n.pipe);
  real.start();
  n.rtm.run();
  ASSERT_EQ(n.sink.count(), 10u);
  EXPECT_TRUE(n.sink.eos_seen()) << "EOS must cross the netpipe";
  EXPECT_EQ(*n.sink.arrivals()[3].item.payload<std::string>(), "msg3");
  // Latency: arrival is at least base_latency after the 100 Hz send slot.
  EXPECT_GE(n.sink.arrivals()[0].at, rt::milliseconds(10));
}

TEST(NetPipe, TwoSectionsTwoThreads) {
  NetPipeline n(LinkConfig{});
  Realization real(n.rtm, n.pipe);
  // producer side: pump; consumer side: receiver driver. No coroutines.
  EXPECT_EQ(real.thread_count(), 2u);
}

TEST(NetPipe, LocationPropertyChangesOnlyAtTheNetpipe) {
  NetPipeline n(LinkConfig{});
  Plan p = plan(n.pipe);
  const Edge* into_sink = n.pipe.edge_into(n.sink, 0);
  ASSERT_NE(into_sink, nullptr);
  EXPECT_EQ(p.edge_spec.at(into_sink).get<std::string>(props::kLocation),
            "consumer-node");
  const Edge* into_tx = n.pipe.edge_into(n.tx, 0);
  // Producer-side flow carries no (or a different) location property.
  EXPECT_NE(p.edge_spec.at(into_tx).get<std::string>(props::kLocation),
            std::string("consumer-node"));
}

TEST(NetPipe, CongestionDropsAreArbitrary) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 2e3;  // far below the offered load
  cfg.queue_capacity_bytes = 100;
  NetPipeline n(cfg, 50);
  Realization real(n.rtm, n.pipe);
  real.start();
  n.rtm.run();
  EXPECT_GT(n.link.stats().dropped_congestion, 0u);
  EXPECT_LT(n.sink.count(), 50u);
  EXPECT_TRUE(n.sink.eos_seen());
}

// ---------- nodes and the remote protocol ------------------------------------------

TEST(Nodes, RemoteTypespecQueryMarshalsAcrossAgent) {
  rt::Runtime rtm;
  Node node(rtm, "video-server");
  class OfferingSource : public CountingSource {
   public:
    OfferingSource() : CountingSource("cam0", 10) {}
    Typespec output_offer(int) const override {
      return Typespec{{props::kItemType, std::string("video")},
                      {props::kFrameRate, Range{5, 30}}};
    }
  };
  node.adopt(std::make_unique<OfferingSource>());

  const Typespec spec = remote_typespec_query(rtm, node, "cam0", 0);
  EXPECT_EQ(spec.get<std::string>(props::kItemType), "video");
  EXPECT_EQ(spec.get<Range>(props::kFrameRate), (Range{5, 30}));
}

TEST(Nodes, QueryForUnknownComponentFails) {
  rt::Runtime rtm;
  Node node(rtm, "n");
  EXPECT_THROW((void)remote_typespec_query(rtm, node, "ghost", 0),
               RemoteError);
}

TEST(Nodes, RemoteCreateThroughFactory) {
  rt::Runtime rtm;
  Node node(rtm, "edge");
  node.register_factory(
      "counting-source",
      [](const std::string& name, const std::string& args) {
        return std::make_unique<CountingSource>(
            name, static_cast<std::uint64_t>(std::stoul(args)));
      });
  const std::string made =
      remote_create(rtm, node, "counting-source", "src-a", "25");
  EXPECT_EQ(made, "src-a");
  ASSERT_NE(node.lookup("src-a"), nullptr);
  EXPECT_EQ(node.lookup("src-a")->name(), "src-a");
  EXPECT_THROW((void)remote_create(rtm, node, "no-such-type", "x", ""),
               RemoteError);
}

TEST(Nodes, RemoteQueryFromInsideAPipelineThread) {
  // The protocol also works mid-pipeline (a binding protocol would do this).
  rt::Runtime rtm;
  Node node(rtm, "server");
  node.adopt(std::make_unique<CountingSource>("remote-src", 5));
  Typespec got;
  const rt::ThreadId t = rtm.spawn(
      "binder", rt::kPriorityData, [&](rt::Runtime& r, rt::Message) {
        got = remote_typespec_query(r, node, "remote-src", 0);
        return rt::CodeResult::kTerminate;
      });
  rtm.send(t, rt::Message{0, rt::MsgClass::kData});
  rtm.run();
  EXPECT_TRUE(got.empty());  // CountingSource offers no properties
}

}  // namespace
}  // namespace infopipe::net
