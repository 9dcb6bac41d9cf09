// ReliableTransport tests: lossless in-order delivery over lossy links, the
// latency price of retransmission, and the full-pipeline contrast between
// the two protocols a netpipe can encapsulate (§2.4).
#include <gtest/gtest.h>

#include <vector>

#include "core/infopipes.hpp"
#include "media/mpeg.hpp"
#include "net/netpipe.hpp"
#include "net/reliable.hpp"

namespace infopipe::net {
namespace {

LinkConfig lossy(double loss, std::uint64_t seed = 3) {
  LinkConfig lc;
  lc.bandwidth_bps = 10e6;
  lc.base_latency = rt::milliseconds(10);
  lc.random_loss = loss;
  lc.seed = seed;
  return lc;
}

LinkConfig clean_ack_link() {
  LinkConfig lc;
  lc.bandwidth_bps = 10e6;
  lc.base_latency = rt::milliseconds(10);
  return lc;
}

struct RawConsumer {
  rt::Runtime* rt;
  std::vector<std::pair<std::uint64_t, rt::Time>> got;
  bool eos = false;
  rt::ThreadId tid;

  explicit RawConsumer(rt::Runtime& r) : rt(&r) {
    tid = r.spawn("consumer", rt::kPriorityData,
                  [this](rt::Runtime& rr, rt::Message m) -> rt::CodeResult {
                    if (m.type != kMsgNetDeliver) return rt::CodeResult::kContinue;
                    for (const Item& x : m.get<Burst>()->items()) {
                      if (x.is_eos()) {
                        eos = true;
                      } else {
                        got.emplace_back(x.seq, rr.now());
                      }
                    }
                    return rt::CodeResult::kContinue;
                  });
  }
};

TEST(Reliable, DeliversEverythingInOrderDespiteHeavyLoss) {
  rt::Runtime rtm;
  SimLink fwd(lossy(0.3));
  SimLink rev(clean_ack_link());
  ReliableTransport arq(rtm, fwd, rev, rt::milliseconds(50));
  RawConsumer consumer(rtm);
  arq.attach_receiver(consumer.tid);

  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    Item x = Item::token();
    x.seq = static_cast<std::uint64_t>(i);
    x.size_bytes = 500;
    arq.send(rtm, std::move(x));
  }
  arq.send(rtm, Item::eos());
  rtm.run();

  ASSERT_EQ(consumer.got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(consumer.got[static_cast<std::size_t>(i)].first,
              static_cast<std::uint64_t>(i))
        << "out of order at " << i;
  }
  EXPECT_TRUE(consumer.eos);
  EXPECT_GT(arq.stats().retransmissions, 20u) << "30% loss must retransmit";
  EXPECT_EQ(arq.stats().delivered, static_cast<std::uint64_t>(kN) + 1);
}

TEST(Reliable, LosslessLinkHasNoRetransmissions) {
  rt::Runtime rtm;
  SimLink fwd(lossy(0.0));
  SimLink rev(clean_ack_link());
  ReliableTransport arq(rtm, fwd, rev, rt::milliseconds(50));
  RawConsumer consumer(rtm);
  arq.attach_receiver(consumer.tid);
  for (int i = 0; i < 50; ++i) {
    Item x = Item::token();
    x.seq = static_cast<std::uint64_t>(i);
    x.size_bytes = 100;
    arq.send(rtm, std::move(x));
  }
  arq.send(rtm, Item::eos());
  rtm.run();
  EXPECT_EQ(consumer.got.size(), 50u);
  EXPECT_EQ(arq.stats().retransmissions, 0u);
  EXPECT_EQ(arq.stats().duplicates, 0u);
}

TEST(Reliable, RetransmissionCostsLatency) {
  // With loss, some packets arrive only after >= one RTO; without loss the
  // worst-case one-way delay stays near the base latency.
  auto max_delay = [](double loss) {
    rt::Runtime rtm;
    SimLink fwd(lossy(loss, /*seed=*/7));
    SimLink rev(clean_ack_link());
    ReliableTransport arq(rtm, fwd, rev, rt::milliseconds(60));
    RawConsumer consumer(rtm);
    arq.attach_receiver(consumer.tid);
    std::vector<rt::Time> sent_at;
    for (int i = 0; i < 100; ++i) {
      Item x = Item::token();
      x.seq = static_cast<std::uint64_t>(i);
      x.size_bytes = 100;
      sent_at.push_back(rtm.now());
      arq.send(rtm, std::move(x));
    }
    arq.send(rtm, Item::eos());
    rtm.run();
    rt::Time worst = 0;
    for (const auto& [seq, at] : consumer.got) {
      worst = std::max(worst, at - sent_at[seq]);
    }
    return worst;
  };
  const rt::Time clean = max_delay(0.0);
  const rt::Time lossy_worst = max_delay(0.25);
  EXPECT_LT(clean, rt::milliseconds(30));
  EXPECT_GE(lossy_worst, rt::milliseconds(60))
      << "a retransmitted packet pays at least one RTO";
}

TEST(Reliable, VideoPipelineOverReliableVsBestEffort) {
  // The §2.4 trade-off end to end: same lossy network, two protocols.
  auto run_video = [](bool reliable, std::uint64_t& delivered,
                      std::uint64_t& corrupt) {
    rt::Runtime rtm;
    media::StreamConfig cfg;
    cfg.frames = 300;
    media::MpegFileSource src("m.mpg", cfg);
    ClockedPump pump("pump", 30.0);
    MarshalFilter marshal("marshal", media::encode_frame, "video");
    SimLink fwd(lossy(0.15, 11));
    SimLink rev(clean_ack_link());
    ReliableTransport arq(rtm, fwd, rev, rt::milliseconds(60));
    Transport& transport =
        reliable ? static_cast<Transport&>(arq) : static_cast<Transport&>(fwd);
    NetSender tx("tx", transport, "a");
    NetReceiver rx("rx", transport, "b");
    UnmarshalFilter unmarshal("unmarshal", media::decode_frame, "video");
    media::MpegDecoder dec("dec");
    media::VideoDisplay display("display", 30.0);
    Pipeline p;
    p.connect(src, 0, pump, 0);
    p.connect(pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, unmarshal, 0);
    p.connect(unmarshal, 0, dec, 0);
    p.connect(dec, 0, display, 0);
    Realization real(rtm, p);
    real.start();
    rtm.run();
    delivered = display.stats().displayed;
    corrupt = display.stats().corrupt;
  };

  std::uint64_t rel_n = 0, rel_bad = 0, be_n = 0, be_bad = 0;
  run_video(true, rel_n, rel_bad);
  run_video(false, be_n, be_bad);

  EXPECT_EQ(rel_n, 300u) << "reliable transport must deliver every frame";
  EXPECT_EQ(rel_bad, 0u);
  EXPECT_LT(be_n, 290u) << "best effort loses frames at 15% loss";
  EXPECT_GT(be_bad, 10u) << "lost references corrupt dependents";
}

}  // namespace
}  // namespace infopipe::net
