// Parameterized property sweeps (TEST_P): invariants that must hold across
// whole parameter grids, not just hand-picked cases.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/infopipes.hpp"
#include "net/reliable.hpp"

namespace infopipe {
namespace {

// ---------- reliable transport: lossless in-order for any loss rate ------------

using ArqParam = std::tuple<double /*loss*/, std::uint64_t /*seed*/>;

class ArqSweep : public ::testing::TestWithParam<ArqParam> {};

TEST_P(ArqSweep, AlwaysLosslessInOrder) {
  const auto [loss, seed] = GetParam();
  rt::Runtime rtm;
  net::LinkConfig fwd_cfg;
  fwd_cfg.bandwidth_bps = 10e6;
  fwd_cfg.base_latency = rt::milliseconds(8);
  fwd_cfg.random_loss = loss;
  fwd_cfg.seed = seed;
  net::SimLink fwd(fwd_cfg);
  net::LinkConfig ack_cfg;
  ack_cfg.bandwidth_bps = 10e6;
  ack_cfg.base_latency = rt::milliseconds(8);
  net::SimLink rev(ack_cfg);
  // RTO must exceed the worst-case RTT including the send burst's queueing
  // (~29 ms of serialization at 10 Mbps for 120x300 B), or healthy packets
  // retransmit spuriously — real ARQ behaviour, but not what this sweep
  // measures.
  net::ReliableTransport arq(rtm, fwd, rev, rt::milliseconds(100));

  std::vector<std::uint64_t> got;
  bool eos = false;
  const rt::ThreadId sink = rtm.spawn(
      "sink", rt::kPriorityData, [&](rt::Runtime&, rt::Message m) {
        if (m.type != net::kMsgNetDeliver) return rt::CodeResult::kContinue;
        for (const Item& x : m.get<net::Burst>()->items()) {
          if (x.is_eos()) {
            eos = true;
          } else {
            got.push_back(x.seq);
          }
        }
        return rt::CodeResult::kContinue;
      });
  arq.attach_receiver(sink);

  constexpr int kN = 120;
  for (int i = 0; i < kN; ++i) {
    Item x = Item::token();
    x.seq = static_cast<std::uint64_t>(i);
    x.size_bytes = 300;
    arq.send(rtm, std::move(x));
  }
  arq.send(rtm, Item::eos());
  rtm.run();

  std::vector<std::uint64_t> expect(kN);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(got, expect) << "loss=" << loss << " seed=" << seed;
  EXPECT_TRUE(eos);
  if (loss == 0.0) EXPECT_EQ(arq.stats().retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, ArqSweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.2, 0.4),
                       ::testing::Values(1u, 17u, 333u)),
    [](const ::testing::TestParamInfo<ArqParam>& info) {
      return "loss" +
             std::to_string(
                 static_cast<int>(std::get<0>(info.param) * 100)) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------- buffers: policy invariants across rate mismatches -------------------

struct BufParam {
  std::size_t capacity;
  FullPolicy full;
  double fill_hz;
  double drain_hz;
};

class BufferSweep : public ::testing::TestWithParam<BufParam> {};

TEST_P(BufferSweep, PolicyInvariantsHold) {
  const BufParam p = GetParam();
  rt::Runtime rtm;
  constexpr std::uint64_t kItems = 300;
  CountingSource src("src", kItems);
  ClockedPump fill("fill", p.fill_hz);
  Buffer buf("buf", p.capacity, p.full, EmptyPolicy::kBlock);
  ClockedPump drain("drain", p.drain_hz);
  CollectorSink sink("sink");
  auto ch = src >> fill >> buf >> drain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();

  const auto& s = buf.stats();
  // Conservation. The two drop policies account differently: kDropNewest
  // rejects items before they are accepted (puts excludes them), while
  // kDropOldest evicts items that were already accepted (puts includes
  // them).
  if (p.full == FullPolicy::kDropNewest) {
    EXPECT_EQ(s.puts + s.drops, kItems);
    EXPECT_EQ(s.takes + buf.fill(), s.puts);
  } else {  // kBlock (drops == 0) and kDropOldest
    EXPECT_EQ(s.puts, kItems);
    EXPECT_EQ(s.takes + buf.fill() + s.drops, s.puts);
  }
  // Fill never exceeded capacity (modulo the one-slot stop-overflow, which
  // cannot occur here: nothing stops mid-run).
  EXPECT_LE(s.max_fill, p.capacity);
  // Order is preserved for the delivered subsequence.
  const auto seqs = sink.seqs();
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  // Blocking policy never drops.
  if (p.full == FullPolicy::kBlock) {
    EXPECT_EQ(s.drops, 0u);
    EXPECT_EQ(sink.count(), kItems);
  }
  // A strictly faster consumer loses nothing under any policy.
  if (p.drain_hz > p.fill_hz) {
    EXPECT_EQ(sink.count(), kItems);
  }
  EXPECT_TRUE(sink.eos_seen());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyRateGrid, BufferSweep,
    ::testing::Values(
        BufParam{2, FullPolicy::kBlock, 500.0, 100.0},
        BufParam{2, FullPolicy::kBlock, 100.0, 500.0},
        BufParam{8, FullPolicy::kBlock, 500.0, 500.0},
        BufParam{2, FullPolicy::kDropNewest, 500.0, 100.0},
        BufParam{8, FullPolicy::kDropNewest, 100.0, 500.0},
        BufParam{2, FullPolicy::kDropOldest, 500.0, 100.0},
        BufParam{8, FullPolicy::kDropOldest, 500.0, 100.0},
        BufParam{1, FullPolicy::kBlock, 1000.0, 50.0},
        BufParam{1, FullPolicy::kDropOldest, 1000.0, 50.0}),
    [](const ::testing::TestParamInfo<BufParam>& info) {
      const BufParam& p = info.param;
      const char* pol = p.full == FullPolicy::kBlock        ? "block"
                        : p.full == FullPolicy::kDropNewest ? "dropnew"
                                                            : "dropold";
      return std::string(pol) + "_cap" + std::to_string(p.capacity) + "_" +
             std::to_string(static_cast<int>(p.fill_hz)) + "to" +
             std::to_string(static_cast<int>(p.drain_hz));
    });

// ---------- clocked pumps: exact pacing at any rate --------------------------------

class PumpRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(PumpRateSweep, ExactCadenceUnderVirtualClock) {
  const double hz = GetParam();
  rt::Runtime rtm;
  CountingSource src("src", 50);
  ClockedPump pump("pump", hz);
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 50u);
  const rt::Time period = static_cast<rt::Time>(1e9 / hz + 0.5);
  for (std::size_t i = 1; i < sink.arrivals().size(); ++i) {
    const rt::Time dt = sink.arrivals()[i].at - sink.arrivals()[i - 1].at;
    EXPECT_NEAR(static_cast<double>(dt), static_cast<double>(period), 2.0)
        << "at " << hz << " Hz, cycle " << i;
  }
  EXPECT_EQ(pump.deadline_misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, PumpRateSweep,
                         ::testing::Values(1.0, 24.0, 29.97, 30.0, 48.0,
                                           100.0, 44100.0 / 512, 1000.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "hz" + std::to_string(static_cast<int>(
                                             info.param * 100));
                         });

}  // namespace
}  // namespace infopipe
