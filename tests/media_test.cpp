// Media substrate tests: the synthetic MPEG stream, decoder reference
// tracking, frame-type-aware dropping, resizer control, display statistics,
// the wire codec, and MIDI components.
#include <gtest/gtest.h>

#include "core/infopipes.hpp"
#include "media/midi.hpp"
#include "media/mpeg.hpp"
#include "media/paper_api.hpp"

namespace infopipe::media {
namespace {

StreamConfig small_stream(std::uint64_t frames = 24) {
  StreamConfig c;
  c.frames = frames;
  c.fps = 30.0;
  c.gop = "IBBPBBPBB";
  return c;
}

TEST(MpegFileSource, FollowsGopPatternAndSizes) {
  rt::Runtime rtm;
  MpegFileSource src("test.mpg", small_stream(18));
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 18u);
  const std::string gop = "IBBPBBPBB";
  for (std::size_t i = 0; i < 18; ++i) {
    const VideoFrame& f = sink.arrivals()[i].item.as<VideoFrame>();
    EXPECT_EQ(to_char(f.type), gop[i % gop.size()]) << "frame " << i;
    EXPECT_EQ(f.frame_no, i);
    // Size within the configured jitter band around the nominal size.
    const std::size_t nominal = f.type == FrameType::kI   ? 12000u
                                : f.type == FrameType::kP ? 4000u
                                                          : 1500u;
    EXPECT_GE(f.compressed_bytes, nominal * 8 / 10);
    EXPECT_LE(f.compressed_bytes, nominal * 12 / 10);
    EXPECT_EQ(sink.arrivals()[i].item.kind, kind_of(f.type));
  }
  EXPECT_TRUE(sink.eos_seen());
}

TEST(MpegFileSource, DeterministicForSameNameAndSeed) {
  auto sizes = [](const std::string& name) {
    rt::Runtime rtm;
    MpegFileSource src(name, small_stream(12));
    FreeRunningPump pump("pump");
    CollectorSink sink("sink");
    auto ch = src >> pump >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    std::vector<std::size_t> v;
    for (const auto& a : sink.arrivals()) {
      v.push_back(a.item.as<VideoFrame>().compressed_bytes);
    }
    return v;
  };
  EXPECT_EQ(sizes("a.mpg"), sizes("a.mpg"));
  EXPECT_NE(sizes("a.mpg"), sizes("b.mpg"));
}

TEST(MpegDecoder, DecodesCleanStreamWithoutCorruption) {
  rt::Runtime rtm;
  MpegFileSource src("test.mpg", small_stream(27));
  MpegDecoder dec("dec");
  FreeRunningPump pump("pump");
  VideoDisplay display("display");
  auto ch = src >> dec >> pump >> display;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(dec.stats().decoded, 27u);
  EXPECT_EQ(dec.stats().corrupt, 0u);
  EXPECT_EQ(display.stats().displayed, 27u);
  EXPECT_EQ(display.stats().corrupt, 0u);
  // The display released every reference frame (§2.2 protocol).
  EXPECT_EQ(dec.held_references(), 0u);
}

TEST(MpegDecoder, MarksDependentsOfDroppedReferencesCorrupt) {
  rt::Runtime rtm;
  StreamConfig cfg = small_stream(18);
  MpegFileSource src("test.mpg", cfg);
  // Drop every I frame before the decoder: whole GOPs become undecodable.
  LambdaConsumer dropper("drop-i", [](Item x, const auto& emit) {
    if (x.kind != kKindI) emit(std::move(x));
  });
  MpegDecoder dec("dec");
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> dropper >> dec >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(dec.stats().decoded, 16u);  // 18 minus 2 I frames
  EXPECT_EQ(dec.stats().corrupt, 16u) << "P/B without I must be corrupt";
}

TEST(MpegDecoder, TypespecTransformsMpegToRaw) {
  MpegFileSource src("test.mpg", small_stream());
  MpegDecoder dec("dec");
  FreeRunningPump pump("pump");
  VideoDisplay display("display");
  auto ch = src >> dec >> pump >> display;
  Plan p = plan(ch.pipeline());
  const Edge* e = ch.pipeline().edge_into(display, 0);
  EXPECT_EQ(p.edge_spec.at(e).get<StringSet>(props::kFormats),
            (StringSet{"raw"}));
}

TEST(FrameDrop, LevelsDropByType) {
  for (int level = 0; level <= 3; ++level) {
    rt::Runtime rtm;
    MpegFileSource src("test.mpg", small_stream(27));  // 3 GOPs of IBBPBBPBB
    FrameDropFilter filter("filter");
    filter.set_level(level);
    FreeRunningPump pump("pump");
    CollectorSink sink("sink");
    auto ch = src >> pump >> filter >> sink;
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    // Per 9-frame GOP: 1 I, 2 P, 6 B.
    const std::size_t expected[] = {27u, 9u, 3u, 0u};
    EXPECT_EQ(sink.count(), expected[level]) << "level " << level;
    if (level >= 1) EXPECT_EQ(filter.stats().dropped[kKindB], 18u);
    if (level >= 2) EXPECT_EQ(filter.stats().dropped[kKindP], 6u);
  }
}

TEST(FrameDrop, QualityHintMapsToLevel) {
  FrameDropFilter f("f");
  f.handle_event(Event{kEventQualityHint, 1.0});
  EXPECT_EQ(f.level(), 0);
  f.handle_event(Event{kEventQualityHint, 0.0});
  EXPECT_EQ(f.level(), 3);
  f.handle_event(Event{kEventQualityHint, 0.7});
  EXPECT_EQ(f.level(), 1);
  f.handle_event(Event{kEventDropLevel, 2});
  EXPECT_EQ(f.level(), 2);
}

TEST(Resizer, FollowsWindowResizeFromDisplay) {
  rt::Runtime rtm;
  MpegFileSource src("test.mpg", small_stream(20));
  MpegDecoder dec("dec");
  ClockedPump pump("pump", 100.0);
  // The resizer sits directly upstream of the display — the §2.2 example:
  // "a video resizing component needs to be informed by the video display
  // whenever the user changes the window size" via LOCAL control.
  Resizer resize("resize", 320, 240);
  class ResizableDisplay : public VideoDisplay {
   public:
    using VideoDisplay::VideoDisplay;
    std::vector<int> widths;

   protected:
    void consume(Item x) override {
      widths.push_back(x.as<VideoFrame>().width);
      VideoDisplay::consume(std::move(x));
    }
  };
  ResizableDisplay display("display");
  auto ch = src >> dec >> pump >> resize >> display;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(55));  // ~6 frames at the original size
  display.user_resize(640, 480);
  rtm.run();
  EXPECT_EQ(resize.width(), 640);
  ASSERT_EQ(display.widths.size(), 20u);
  EXPECT_EQ(display.widths.front(), 320);
  EXPECT_EQ(display.widths.back(), 640);
}

TEST(VideoDisplay, JitterStatisticsReflectPacing) {
  rt::Runtime rtm;
  MpegFileSource src("test.mpg", small_stream(30));
  ClockedPump pump("pump", 30.0);
  VideoDisplay display("display", 30.0);
  auto ch = src >> pump >> display;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  const auto s = display.stats();
  EXPECT_EQ(s.displayed, 30u);
  EXPECT_NEAR(s.mean_abs_jitter_ms, 0.0, 0.01)
      << "a clocked pump under the virtual clock is jitter-free";
  EXPECT_EQ(s.per_type[kKindI] + s.per_type[kKindP] + s.per_type[kKindB],
            30u);
}

TEST(WireCodec, FrameSurvivesRoundTrip) {
  VideoFrame f;
  f.frame_no = 123;
  f.type = FrameType::kP;
  f.width = 352;
  f.height = 288;
  f.pts = rt::milliseconds(4100);
  f.compressed_bytes = 4321;
  f.content_id = 0xDEADBEEF;
  Item x = Item::of<VideoFrame>(f);
  x.kind = kind_of(f.type);

  const Item wire = encode_frame(x);
  EXPECT_EQ(wire.bytes_size(), 4321u) << "wire size must match the coded size";
  Item y = decode_frame({wire.bytes_data(), wire.bytes_size()});
  ASSERT_TRUE(y.is_data());
  const VideoFrame& g = y.as<VideoFrame>();
  EXPECT_EQ(g.frame_no, 123u);
  EXPECT_EQ(g.type, FrameType::kP);
  EXPECT_EQ(g.width, 352);
  EXPECT_EQ(g.height, 288);
  EXPECT_EQ(g.pts, rt::milliseconds(4100));
  EXPECT_EQ(g.compressed_bytes, 4321u);
  EXPECT_EQ(g.content_id, 0xDEADBEEF);
}

TEST(WireCodec, RejectsGarbage) {
  EXPECT_TRUE(decode_frame({}).is_nil());
  EXPECT_TRUE(decode_frame(std::vector<std::uint8_t>(100, 7)).is_nil());
}

// The paper's send_event(real, START) is spelled real.control(START): one
// documented lifecycle entry point, no forwarder shim.
TEST(PaperApi, QuickstartSnippetCompilesAndRuns) {
  rt::Runtime rtm;
  StreamConfig cfg;
  cfg.frames = 60;
  mpeg_file source("test.mpg", cfg);
  mpeg_decoder decode;
  clocked_pump pump(30);  // 30 Hz
  video_display sink;
  auto chain = source >> decode >> pump >> sink;
  Realization real(rtm, chain.pipeline());
  real.control(START);
  rtm.run();
  EXPECT_EQ(sink.stats().displayed, 60u);
  EXPECT_TRUE(sink.eos());
}

TEST(Vcr, SeekJumpsToGopBoundaryAndDecodesClean) {
  rt::Runtime rtm;
  StreamConfig cfg = small_stream(90);  // 10 GOPs of IBBPBBPBB
  MpegFileSource src("movie.mpg", cfg);
  MpegDecoder dec("dec");
  ClockedPump pump("pump", 100.0);
  VideoDisplay display("display", 100.0);
  auto ch = src >> dec >> pump >> display;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run_until(rt::milliseconds(105));  // ~11 frames played
  // User seeks to frame 50 -> snaps to the GOP start at frame 45 (an I).
  real.post_event_to(src, Event{kEventSeek, std::uint64_t{50}});
  rtm.run();
  const auto s = display.stats();
  // ~11 frames before the seek + 45 after (45..89).
  EXPECT_GE(s.displayed, 55u);
  EXPECT_LE(s.displayed, 57u);
  EXPECT_EQ(s.corrupt, 0u)
      << "seek landed mid-GOP: frames decoded without a reference";
  EXPECT_TRUE(display.eos());
}

TEST(Vcr, SeekBackwardsReplays) {
  rt::Runtime rtm;
  StreamConfig cfg = small_stream(18);  // 2 GOPs
  MpegFileSource src("movie.mpg", cfg);
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> pump >> sink;
  {
    Realization real(rtm, ch.pipeline());
    real.start();
    rtm.run();
    ASSERT_EQ(sink.count(), 18u);
    real.shutdown();
    rtm.run();
  }
  // Rewind to the start and play again with a fresh realization.
  src.handle_event(Event{kEventSeek, std::uint64_t{0}});
  sink.clear();
  Realization real2(rtm, ch.pipeline());
  real2.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 18u);
  EXPECT_EQ(sink.arrivals()[0].item.seq, 0u);
}

// ---------- MIDI --------------------------------------------------------------------

TEST(Midi, MixerMergesChannelsInArrivalOrder) {
  rt::Runtime rtm;
  MidiSource ch0("ch0", 50, 0, 60);
  MidiSource ch1("ch1", 50, 1, 48);
  ClockedPump p0("p0", 1000.0);
  ClockedPump p1("p1", 1000.0);
  MidiMixer mix("mix", 2);
  CollectorSink sink("sink");
  Pipeline p;
  p.connect(ch0, 0, p0, 0);
  p.connect(ch1, 0, p1, 0);
  p.connect(p0, 0, mix, 0);
  p.connect(p1, 0, mix, 1);
  p.connect(mix, 0, sink, 0);
  Realization real(rtm, p);
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 100u);
  EXPECT_TRUE(sink.eos_seen());
  std::size_t from0 = 0;
  for (const auto& a : sink.arrivals()) {
    if (a.item.kind == 0) ++from0;
  }
  EXPECT_EQ(from0, 50u);
}

TEST(Midi, TransposeShiftsNotes) {
  rt::Runtime rtm;
  MidiSource src("src", 12, 0, 60);
  MidiTranspose up("up", 5);
  FreeRunningPump pump("pump");
  CollectorSink sink("sink");
  auto ch = src >> up >> pump >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  ASSERT_EQ(sink.count(), 12u);
  EXPECT_EQ(sink.arrivals()[0].item.as<MidiEvent>().note, 65);
}

TEST(Midi, GainGatesSilentNotes) {
  rt::Runtime rtm;
  MidiSource src("src", 20, 0);
  MidiGain gain("gain", 0.0);  // gates everything
  FreeRunningPump pump("pump");
  CountingSink sink("sink");
  auto ch = src >> pump >> gain >> sink;
  Realization real(rtm, ch.pipeline());
  real.start();
  rtm.run();
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_TRUE(sink.eos_seen());
}

}  // namespace
}  // namespace infopipe::media
