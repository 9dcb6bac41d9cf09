// Partition tests: sections-to-shards assignment (ip_shard).
//
// The invariants under test, for the Figure 9 configurations a-h and for
// multi-section chains, at 1, 2 and 4 shards:
//   * cuts land ONLY on passive buffer boundaries — never inside a section,
//   * threads_per_shard() sums to plan.total_threads() (conservation),
//   * sections joined through a shared region (MergeTee tails) are never
//     separated, nor are explicitly colocated pairs,
//   * the assignment is deterministic (LPT greedy over sorted clusters).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "core/infopipes.hpp"
#include "core/tee.hpp"
#include "media/midi.hpp"
#include "media/mpeg.hpp"
#include "net/netpipe.hpp"
#include "net/transport.hpp"
#include "replay/digest.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

Item combine2(Item a, Item) { return a; }

struct Fixture {
  CountingSource src{"src", 100};
  CollectorSink sink{"sink"};
  FreeRunningPump pump{"pump"};
  DefragmenterConsumer consumer{"consumer", combine2};
  DefragmenterConsumer consumer2{"consumer2", combine2};
  DefragmenterProducer producer{"producer", combine2};
  DefragmenterProducer producer2{"producer2", combine2};
  DefragmenterActive active{"active", combine2};
  DefragmenterActive active2{"active2", combine2};
  IdentityFunction fn{"fn"};
  IdentityFunction fn2{"fn2"};
};

/// Checks the partition invariants that must hold for EVERY plan.
void check_invariants(const Plan& p, const Partition& part, int n_shards) {
  ASSERT_EQ(part.n_shards, n_shards);
  ASSERT_EQ(part.shard_of_section.size(), p.sections.size());
  for (const int s : part.shard_of_section) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, n_shards);
  }
  // Thread conservation.
  const std::vector<int> per_shard = part.threads_per_shard(p);
  ASSERT_EQ(per_shard.size(), static_cast<std::size_t>(n_shards));
  EXPECT_EQ(std::accumulate(per_shard.begin(), per_shard.end(), 0),
            p.total_threads());
  // Cuts only at buffer boundaries, and only where shards actually differ.
  for (const Partition::Cut& c : part.cuts) {
    ASSERT_NE(c.buffer, nullptr);
    EXPECT_EQ(c.buffer->style(), Style::kBuffer)
        << "cut at non-buffer '" << c.buffer->name() << "'";
    EXPECT_EQ(p.hosted_info(*c.buffer), nullptr)
        << "cut buffer '" << c.buffer->name() << "' is inside a section";
    ASSERT_LT(c.upstream_section, p.sections.size());
    ASSERT_LT(c.downstream_section, p.sections.size());
    EXPECT_NE(part.shard_of_section[c.upstream_section],
              part.shard_of_section[c.downstream_section]);
  }
  // Every section member stays with its driver (sections are atomic).
  for (std::size_t i = 0; i < p.sections.size(); ++i) {
    const Plan::Section& sec = p.sections[i];
    EXPECT_EQ(part.shard_of(p, *sec.driver), part.shard_of_section[i]);
    for (const Plan::Hosted& h : sec.members) {
      if (h.shared) continue;  // shared comps are listed under one section
      EXPECT_EQ(part.shard_of(p, *h.comp), part.shard_of_section[i]);
    }
  }
}

// --- Figure 9 a-h: single-section pipelines never get cut -------------------

TEST(ShardPartition, Figure9SingleSectionsNeverCut) {
  for (const int n : {1, 2, 4}) {
    for (int cfg = 0; cfg < 8; ++cfg) {
      Fixture f;
      Pipeline* pipe = nullptr;
      Chain ch = [&]() -> Chain {
        switch (cfg) {
          case 0:  // a
            return f.src >> f.producer >> f.pump >> f.consumer >> f.sink;
          case 1:  // b
            return f.src >> f.fn >> f.pump >> f.fn2 >> f.sink;
          case 2:  // c
            return f.src >> f.pump >> f.consumer >> f.consumer2 >> f.sink;
          case 3:  // d
            return f.src >> f.pump >> f.active >> f.fn >> f.sink;
          case 4:  // e
            return f.src >> f.consumer >> f.pump >> f.producer >> f.sink;
          case 5:  // f
            return f.src >> f.active >> f.pump >> f.active2 >> f.sink;
          case 6:  // g
            return f.src >> f.producer2 >> f.producer >> f.pump >> f.sink;
          case 7:  // h
          default:
            return f.src >> f.pump >> f.consumer >> f.fn >> f.sink;
        }
      }();
      pipe = &ch.pipeline();
      const Plan p = plan(*pipe);
      ASSERT_EQ(p.sections.size(), 1u) << "cfg " << cfg;
      const Partition part = partition(p, n);
      check_invariants(p, part, n);
      EXPECT_TRUE(part.cuts.empty()) << "cfg " << cfg << " at " << n;
      // All threads on one shard.
      const std::vector<int> per = part.threads_per_shard(p);
      int nonzero = 0;
      for (const int t : per) nonzero += t > 0 ? 1 : 0;
      EXPECT_EQ(nonzero, 1) << "cfg " << cfg << " at " << n;
    }
  }
}

// --- Multi-section chains: cuts appear exactly at the buffers ---------------

TEST(ShardPartition, TwoSectionsSplitAtTheBuffer) {
  Fixture f;
  Buffer buf{"buf", 8};
  FreeRunningPump pump2{"pump2"};
  auto ch = f.src >> f.pump >> buf >> pump2 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 2u);

  const Partition p1 = partition(p, 1);
  check_invariants(p, p1, 1);
  EXPECT_TRUE(p1.cuts.empty());

  const Partition p2 = partition(p, 2);
  check_invariants(p, p2, 2);
  ASSERT_EQ(p2.cuts.size(), 1u);
  EXPECT_EQ(p2.cuts[0].buffer, &buf);
  EXPECT_EQ(p2.threads_per_shard(p), (std::vector<int>{1, 1}));
}

TEST(ShardPartition, FourSectionChainAcrossFourShards) {
  Fixture f;
  Buffer b1{"b1", 8};
  Buffer b2{"b2", 8};
  Buffer b3{"b3", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  FreeRunningPump pump4{"pump4"};
  auto ch = f.src >> f.pump >> b1 >> f.fn >> pump2 >> b2 >> pump3 >> b3 >>
            f.fn2 >> pump4 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 4u);

  for (const int n : {1, 2, 4}) {
    const Partition part = partition(p, n);
    check_invariants(p, part, n);
    if (n == 1) {
      EXPECT_TRUE(part.cuts.empty());
    } else if (n == 4) {
      // Four 1-thread sections over four shards: every buffer is a cut.
      EXPECT_EQ(part.cuts.size(), 3u);
      for (const int t : part.threads_per_shard(p)) EXPECT_EQ(t, 1);
    } else {
      EXPECT_EQ(part.threads_per_shard(p), (std::vector<int>{2, 2}));
    }
  }
}

TEST(ShardPartition, HeavySectionsBalanceByThreadCount) {
  // Section 1 has three threads (two active members), sections 2 and 3 have
  // one each; LPT must put the heavy one alone on a shard.
  Fixture f;
  Buffer b1{"b1", 8};
  Buffer b2{"b2", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  auto ch = f.src >> f.active >> f.pump >> f.active2 >> b1 >> pump2 >> b2 >>
            pump3 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 3u);
  ASSERT_EQ(p.total_threads(), 5);

  const Partition part = partition(p, 2);
  check_invariants(p, part, 2);
  std::vector<int> per = part.threads_per_shard(p);
  std::sort(per.begin(), per.end());
  EXPECT_EQ(per, (std::vector<int>{2, 3}));
}

// --- Shared regions and explicit colocation are never separated -------------

TEST(ShardPartition, MergeTailSectionsStayTogether) {
  Fixture f;
  CountingSource src2{"src2", 100};
  FreeRunningPump pump2{"pump2"};
  MergeTee merge{"merge", 2};
  Pipeline pipe;
  pipe.connect(f.src, 0, f.pump, 0);
  pipe.connect(f.pump, 0, merge, 0);
  pipe.connect(src2, 0, pump2, 0);
  pipe.connect(pump2, 0, merge, 1);
  pipe.connect(merge, 0, f.sink, 0);
  const Plan p = plan(pipe);
  ASSERT_EQ(p.sections.size(), 2u);

  for (const int n : {2, 4}) {
    const Partition part = partition(p, n);
    check_invariants(p, part, n);
    // The merge tail is reachable from both drivers; separating the two
    // sections would put a non-buffer edge across shards.
    EXPECT_EQ(part.shard_of_section[0], part.shard_of_section[1]);
    EXPECT_TRUE(part.cuts.empty());
  }
}

TEST(ShardPartition, ColocatePairOverridesBalance) {
  Fixture f;
  Buffer buf{"buf", 8};
  FreeRunningPump pump2{"pump2"};
  auto ch = f.src >> f.pump >> buf >> pump2 >> f.sink;
  const Plan p = plan(ch.pipeline());

  // Without the constraint the two sections separate at 2 shards...
  EXPECT_EQ(partition(p, 2).cuts.size(), 1u);
  // ...with it they land on one shard and nothing is cut.
  const Partition part = partition(p, 2, {{&f.pump, &pump2}});
  check_invariants(p, part, 2);
  EXPECT_TRUE(part.cuts.empty());
  EXPECT_EQ(part.shard_of_section[0], part.shard_of_section[1]);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Fixture f;
  Buffer b1{"b1", 8};
  Buffer b2{"b2", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  auto ch =
      f.src >> f.pump >> b1 >> pump2 >> b2 >> pump3 >> f.sink;
  const Plan p = plan(ch.pipeline());
  const Partition a = partition(p, 2);
  const Partition b = partition(p, 2);
  EXPECT_EQ(a.shard_of_section, b.shard_of_section);
  ASSERT_EQ(a.cuts.size(), b.cuts.size());
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i].buffer, b.cuts[i].buffer);
  }
}

// --- per-section migratability ----------------------------------------------

/// Function stage standing in for a device-bound component.
class NonMigratableStage : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;
  [[nodiscard]] bool migratable() const override { return false; }

 protected:
  Item convert(Item x) override { return x; }
};

TEST(ShardPartition, FreeSectionsAreMigratable) {
  Fixture f;
  Buffer b1{"b1", 8};
  Buffer b2{"b2", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  auto ch = f.src >> f.pump >> b1 >> pump2 >> b2 >> pump3 >> f.sink;
  const Plan p = plan(ch.pipeline());
  const Partition part = partition(p, 2);
  ASSERT_EQ(part.migratable_section.size(), p.sections.size());
  for (std::size_t i = 0; i < p.sections.size(); ++i) {
    EXPECT_TRUE(part.migratable(i)) << "section " << i;
  }
  EXPECT_FALSE(part.migratable(99));  // out of range is just "no"
}

TEST(ShardPartition, ColocationClustersArePinned) {
  Fixture f;
  Buffer drop{"drop", 8, FullPolicy::kDropOldest};  // forces colocation
  Buffer b2{"b2", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  auto ch = f.src >> f.pump >> drop >> pump2 >> b2 >> pump3 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 3u);
  const Partition part =
      partition(p, 2, {{p.sections[0].driver, p.sections[1].driver}});
  // Sections 0 and 1 move only as a unit (the kDropOldest buffer between
  // them cannot become a channel); section 2 is free.
  EXPECT_FALSE(part.migratable(0));
  EXPECT_FALSE(part.migratable(1));
  EXPECT_TRUE(part.migratable(2));
}

TEST(ShardPartition, NonMigratableMemberPinsItsSection) {
  Fixture f;
  NonMigratableStage dev{"dev"};
  Buffer b1{"b1", 8};
  FreeRunningPump pump2{"pump2"};
  auto ch = f.src >> dev >> f.pump >> b1 >> pump2 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 2u);
  const Partition part = partition(p, 2);
  EXPECT_FALSE(part.migratable(0));  // hosts the device stand-in
  EXPECT_TRUE(part.migratable(1));
}

TEST(ShardPartition, CutsForRecomputesAfterReassignment) {
  Fixture f;
  Buffer b1{"b1", 8};
  Buffer b2{"b2", 8};
  FreeRunningPump pump2{"pump2"};
  FreeRunningPump pump3{"pump3"};
  auto ch = f.src >> f.pump >> b1 >> pump2 >> b2 >> pump3 >> f.sink;
  const Plan p = plan(ch.pipeline());
  ASSERT_EQ(p.sections.size(), 3u);

  // All together: no cuts. Middle section alone: both buffers cut.
  EXPECT_TRUE(cuts_for(p, {0, 0, 0}).empty());
  const std::vector<Partition::Cut> both = cuts_for(p, {0, 1, 0});
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].buffer, &b1);
  EXPECT_EQ(both[1].buffer, &b2);
  // A chain split: one cut, at the moved boundary only.
  const std::vector<Partition::Cut> tail = cuts_for(p, {0, 0, 1});
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].buffer, &b2);
  EXPECT_EQ(tail[0].upstream_section, 1u);
  EXPECT_EQ(tail[0].downstream_section, 2u);
}

TEST(ShardPartition, MoreShardsThanSectionsLeavesShardsEmpty) {
  Fixture f;
  auto ch = f.src >> f.pump >> f.sink;
  const Plan p = plan(ch.pipeline());
  const Partition part = partition(p, 4);
  check_invariants(p, part, 4);
  const std::vector<int> per = part.threads_per_shard(p);
  EXPECT_EQ(std::count(per.begin(), per.end(), 0), 3);
}

// --- Golden placements -------------------------------------------------------
//
// Exact placements recorded from the partitioner and the shard evacuation
// while each still ran its own LPT loop; both now call place(). Any change
// to weights, orderings or tie-breaks shows up here as a changed string.

/// "shard_of_section / migratable_section", e.g. "0,1/1,1".
std::string placement(const Partition& part) {
  std::string out;
  for (std::size_t i = 0; i < part.shard_of_section.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(part.shard_of_section[i]);
  }
  out += "/";
  for (std::size_t i = 0; i < part.migratable_section.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(part.migratable(i) ? 1 : 0);
  }
  return out;
}

/// Six sections of 1, 3, 2, 1, 2 and 3 threads, each cut from the next by a
/// buffer: the evacuation fixture, and a partition with real tie-breaks.
struct MixedChain {
  CountingSource src{"src", 400};
  std::vector<std::unique_ptr<ClockedPump>> pumps;
  std::vector<std::unique_ptr<Buffer>> bufs;
  std::vector<std::unique_ptr<DefragmenterActive>> actives;
  CollectorSink sink{"sink"};
  Pipeline pipe;

  MixedChain() {
    const int coroutines[] = {0, 2, 1, 0, 1, 2};
    Component* prev = &src;
    for (int s = 0; s < 6; ++s) {
      if (s > 0) {
        bufs.push_back(
            std::make_unique<Buffer>("b" + std::to_string(s), 16));
        pipe.connect(*prev, 0, *bufs.back(), 0);
        prev = bufs.back().get();
      }
      pumps.push_back(
          std::make_unique<ClockedPump>("p" + std::to_string(s), 200.0));
      pipe.connect(*prev, 0, *pumps.back(), 0);
      prev = pumps.back().get();
      for (int a = 0; a < coroutines[s]; ++a) {
        actives.push_back(std::make_unique<DefragmenterActive>(
            "a" + std::to_string(s) + std::to_string(a), combine2));
        pipe.connect(*prev, 0, *actives.back(), 0);
        prev = actives.back().get();
      }
    }
    pipe.connect(*prev, 0, sink, 0);
  }
};

TEST(PlacementGolden, PartitionOfFigure9AndExamplePipelines) {
  std::map<std::string, std::vector<std::string>> got;  // name -> n = 1..4
  auto record = [&got](const std::string& name, const Plan& p,
                       const std::vector<std::pair<const Component*,
                                                   const Component*>>&
                           colocate = {}) {
    for (int n = 1; n <= 4; ++n) {
      got[name].push_back(placement(partition(p, n, colocate)));
    }
  };

  for (int cfg = 0; cfg < 8; ++cfg) {
    Fixture f;
    Chain ch = [&]() -> Chain {
      switch (cfg) {
        case 0: return f.src >> f.producer >> f.pump >> f.consumer >> f.sink;
        case 1: return f.src >> f.fn >> f.pump >> f.fn2 >> f.sink;
        case 2: return f.src >> f.pump >> f.consumer >> f.consumer2 >> f.sink;
        case 3: return f.src >> f.pump >> f.active >> f.fn >> f.sink;
        case 4: return f.src >> f.consumer >> f.pump >> f.producer >> f.sink;
        case 5: return f.src >> f.active >> f.pump >> f.active2 >> f.sink;
        case 6: return f.src >> f.producer2 >> f.producer >> f.pump >> f.sink;
        default: return f.src >> f.pump >> f.consumer >> f.fn >> f.sink;
      }
    }();
    record(std::string("fig9") + static_cast<char>('a' + cfg),
           plan(ch.pipeline()));
  }

  {  // sharded_player: the Figure 1 player, decode and presentation halves
    media::StreamConfig cfg;
    cfg.frames = 600;
    cfg.fps = 30.0;
    media::MpegFileSource movie("movie.mpg", cfg);
    FreeRunningPump fill("fill");
    media::MpegDecoder decoder("decoder");
    Buffer frames("frames", 16);
    FreeRunningPump play("play");
    media::VideoDisplay display("display", cfg.fps);
    Pipeline p;
    p.connect(movie, 0, fill, 0);
    p.connect(fill, 0, decoder, 0);
    p.connect(decoder, 0, frames, 0);
    p.connect(frames, 0, play, 0);
    p.connect(play, 0, display, 0);
    record("sharded_player", plan(p));
  }

  {  // distributed_player: both ends of the netpipe in one pipeline
    net::LinkConfig lc;
    net::SimLink link(lc);
    media::StreamConfig cfg;
    cfg.frames = 60;
    media::MpegFileSource cam("cam0", cfg);
    ClockedPump send_pump("send-pump", 200.0);
    net::MarshalFilter marshal("marshal", media::encode_frame, "video");
    net::NetSender tx("tx", link, "video-server");
    net::NetReceiver rx("rx", link, "living-room");
    replay::DigestProbe tap("digest");
    net::UnmarshalFilter unmarshal("unmarshal", media::decode_frame, "video");
    media::MpegDecoder decoder("decoder");
    media::VideoDisplay screen("screen", 30.0);
    Pipeline p;
    p.connect(cam, 0, send_pump, 0);
    p.connect(send_pump, 0, marshal, 0);
    p.connect(marshal, 0, tx, 0);
    p.connect(rx, 0, tap, 0);
    p.connect(tap, 0, unmarshal, 0);
    p.connect(unmarshal, 0, decoder, 0);
    p.connect(decoder, 0, screen, 0);
    record("distributed_player", plan(p));
  }

  // midi_mixer: four channels merged, fused (function transposes) and
  // thread-per-stage (active transposes).
  for (const bool threaded : {false, true}) {
    std::vector<std::unique_ptr<Component>> owned;
    media::MidiMixer mixer("mixer", 4);
    CountingSink recorder("recorder");
    Pipeline p;
    for (int c = 0; c < 4; ++c) {
      const std::string id = std::to_string(c);
      auto* src = static_cast<Component*>(
          owned
              .emplace_back(std::make_unique<media::MidiSource>(
                  "ch" + id, 100, static_cast<std::uint8_t>(c)))
              .get());
      auto* pump = owned.emplace_back(std::make_unique<FreeRunningPump>(
                                          "pump" + id))
                       .get();
      Component* transpose =
          threaded ? owned
                         .emplace_back(std::make_unique<DefragmenterActive>(
                             "transpose" + id, combine2))
                         .get()
                   : owned
                         .emplace_back(std::make_unique<media::MidiTranspose>(
                             "transpose" + id, c * 3))
                         .get();
      auto* gain = owned
                       .emplace_back(std::make_unique<media::MidiGain>(
                           "gain" + id, 0.9))
                       .get();
      p.connect(*src, 0, *pump, 0);
      p.connect(*pump, 0, *transpose, 0);
      p.connect(*transpose, 0, *gain, 0);
      p.connect(*gain, 0, mixer, c);
    }
    p.connect(mixer, 0, recorder, 0);
    record(threaded ? "midi_mixer_threaded" : "midi_mixer", plan(p));
  }

  {
    MixedChain m;
    const Plan p = plan(m.pipe);
    record("mixed_chain", p);
    record("mixed_chain_colocated", p, {{m.pumps[1].get(), m.pumps[4].get()}});
  }

  const std::map<std::string, std::vector<std::string>> want = {
      {"fig9a", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9b", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9c", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9d", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9e", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9f", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9g", {"0/1", "0/1", "0/1", "0/1"}},
      {"fig9h", {"0/1", "0/1", "0/1", "0/1"}},
      {"sharded_player", {"0,0/1,1", "0,1/1,1", "0,1/1,1", "0,1/1,1"}},
      {"distributed_player", {"0,0/1,0", "0,1/1,0", "0,1/1,0", "0,1/1,0"}},
      {"midi_mixer",
       {"0,0,0,0/0,0,0,0", "0,0,0,0/0,0,0,0", "0,0,0,0/0,0,0,0",
        "0,0,0,0/0,0,0,0"}},
      {"midi_mixer_threaded",
       {"0,0,0,0/0,0,0,0", "0,0,0,0/0,0,0,0", "0,0,0,0/0,0,0,0",
        "0,0,0,0/0,0,0,0"}},
      {"mixed_chain",
       {"0,0,0,0,0,0/1,1,1,1,1,1", "0,0,0,1,1,1/1,1,1,1,1,1",
        "0,0,2,1,2,1/1,1,1,1,1,1", "2,0,2,3,3,1/1,1,1,1,1,1"}},
      {"mixed_chain_colocated",
       {"0,0,0,0,0,0/1,0,1,1,0,1", "0,0,1,1,0,1/1,0,1,1,0,1",
        "2,0,2,1,0,1/1,0,1,1,0,1", "3,0,2,3,0,1/1,0,1,1,0,1"}},
  };
  EXPECT_EQ(got, want);
}

TEST(PlacementGolden, EvacuationTargets) {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  shard::ShardGroup group(4, opt);
  MixedChain m;
  shard::ShardedRealization sr(group, m.pipe);
  ASSERT_EQ(sr.section_count(), 6u);
  std::vector<int> threads;
  std::vector<int> home;
  for (std::size_t s = 0; s < sr.section_count(); ++s) {
    threads.push_back(sr.section_threads(s));
    home.push_back(sr.shard_of_section(s));
  }
  EXPECT_EQ(threads, (std::vector<int>{1, 3, 2, 1, 2, 3}));
  EXPECT_EQ(home, (std::vector<int>{2, 0, 2, 3, 3, 1}));

  // Drain shard 2, retire it, then drain shard 3 onto the two survivors.
  std::map<std::size_t, int> target;  // section -> evacuation target
  sr.start();
  group.step_until(rt::milliseconds(100));
  for (const shard::MigrationOutcome& o : sr.evacuate_shard(2)) {
    EXPECT_EQ(o.from, 2);
    target[o.section] = o.to;
  }
  group.retire_shard(2);
  group.step_until(rt::milliseconds(200));
  for (const shard::MigrationOutcome& o : sr.evacuate_shard(3)) {
    EXPECT_EQ(o.from, 3);
    target[o.section] = o.to;
  }
  group.retire_shard(3);
  EXPECT_EQ(target,
            (std::map<std::size_t, int>{{0, 1}, {2, 0}, {3, 0}, {4, 1}}));

  for (rt::Time t = rt::milliseconds(300); t <= rt::seconds(10);
       t += rt::milliseconds(100)) {
    group.step_until(t);
  }
  EXPECT_TRUE(sr.finished());
}

}  // namespace
}  // namespace infopipe
