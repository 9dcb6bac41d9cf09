// Synthetic MPEG-style pipeline components: file source, decoder with
// reference-frame tracking and simulated decode cost, frame-type-aware drop
// filter, resizer, display sink with jitter statistics, and the wire codec
// for netpipes. Together these reproduce the component population of the
// paper's Figure 1 video pipeline.
#pragma once

#include <deque>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "core/basic.hpp"
#include "core/component.hpp"
#include "core/typespec.hpp"
#include "media/video.hpp"

namespace infopipe::media {

/// Additional control event types used by the video components.
enum MediaEventType : int {
  kEventDropLevel = kEventUser + 50,  ///< int payload: 0..3
  /// VCR seek, payload: std::uint64_t target frame. The source snaps to the
  /// enclosing GOP's I frame so the decoder restarts from a reference.
  kEventSeek = kEventUser + 51,
};

/// "mpeg_file source("test.mpg")" — a passive source producing a synthetic
/// compressed video stream with the configured GOP structure. Deterministic
/// for a given config (the filename seeds the size variation).
class MpegFileSource : public PassiveSource {
 public:
  MpegFileSource(std::string name, StreamConfig cfg);

  [[nodiscard]] const StreamConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t produced() const noexcept { return next_; }
  void rewind() noexcept {
    next_ = 0;
    last_ref_emitted_ = VideoFrame::kNoRef;
  }

  [[nodiscard]] Typespec output_offer(int) const override;

  /// VCR control: kEventSeek jumps to the GOP containing the target frame
  /// (paused/playing state is the pump's business — STOP/START).
  void handle_event(const Event& e) override;

 protected:
  Item generate() override;

 private:
  StreamConfig cfg_;
  std::mt19937_64 rng_;
  std::uint64_t next_ = 0;
  std::uint64_t last_ref_emitted_ = VideoFrame::kNoRef;
};

/// Decoder: transforms the compressed flow into a raw video flow. Simulates
/// decode cost (the thread sleeps proportionally to the coded size — a
/// preemptible, long-running data processing function, exactly the §3.2
/// scenario), tracks reference frames (I/P are kept until the next I or
/// until a downstream kEventFrameRelease), and marks frames whose references
/// were lost upstream as corrupt.
class MpegDecoder : public FunctionComponent {
 public:
  explicit MpegDecoder(std::string name);

  /// ns of simulated decode work per compressed kilobyte (0 = instant).
  void set_cost_per_kb(rt::Time ns) noexcept { cost_per_kb_ = ns; }

  struct Stats {
    std::uint64_t decoded = 0;
    std::uint64_t corrupt = 0;  ///< decoded with missing references
    std::uint64_t per_type[4] = {0, 0, 0, 0};  ///< indexed by VideoKind
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Reference frames currently held (shared payloads).
  [[nodiscard]] std::size_t held_references() const noexcept {
    return refs_.size();
  }

  [[nodiscard]] Typespec input_requirement(int) const override;
  [[nodiscard]] Typespec transform_downstream(const Typespec& in, int,
                                              int) const override;

  void handle_event(const Event& e) override;

 protected:
  Item convert(Item x) override;

 private:
  rt::Time cost_per_kb_ = 0;
  Stats stats_;
  std::vector<Item> refs_;  ///< decoded reference frames still needed
  /// frame_no of references decoded OK since the last I frame; a P/B whose
  /// ref is not in this set decodes corrupt.
  std::set<std::uint64_t> ok_refs_;
};

/// Frame-type-aware drop filter — the Figure 1 "filter [that] drops when
/// the network is congested. ... This lets us control which data is dropped
/// rather than incurring arbitrary dropping in the network."
///   level 0: pass everything     level 2: drop B and P (I only)
///   level 1: drop B frames       level 3: drop everything (pause)
/// The level is set by control events (kEventDropLevel int, or
/// kEventQualityHint double in [0,1] mapped inversely to a level), so a
/// consumer-side feedback sensor can steer it across the network.
class FrameDropFilter : public Consumer {
 public:
  explicit FrameDropFilter(std::string name) : Consumer(std::move(name)) {}

  [[nodiscard]] int level() const noexcept { return level_; }
  void set_level(int level) noexcept;

  struct Stats {
    std::uint64_t passed = 0;
    std::uint64_t dropped[4] = {0, 0, 0, 0};  ///< by VideoKind
    [[nodiscard]] std::uint64_t total_dropped() const {
      return dropped[1] + dropped[2] + dropped[3];
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  void handle_event(const Event& e) override;

 protected:
  void push(Item x) override;

 private:
  int level_ = 0;
  Stats stats_;
};

/// Resizer: scales decoded frames to the display's window, which it learns
/// about through kEventWindowResize control events from downstream (§2.2's
/// second local-control example).
class Resizer : public FunctionComponent {
 public:
  Resizer(std::string name, int width, int height)
      : FunctionComponent(std::move(name)), width_(width), height_(height) {}

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  void handle_event(const Event& e) override;

  /// The resizer is inoperable unless something (normally the display)
  /// announces window sizes (§2.3 control capabilities).
  [[nodiscard]] StringSet control_requires() const override {
    return {"window-resize"};
  }

 protected:
  Item convert(Item x) override;

 private:
  int width_;
  int height_;
};

/// "video_display sink" — records presentation timing and quality
/// statistics, releases the decoder's reference frames, and can announce
/// window resizes upstream.
class VideoDisplay : public PassiveSink {
 public:
  explicit VideoDisplay(std::string name, double nominal_fps = 30.0)
      : PassiveSink(std::move(name)), nominal_fps_(nominal_fps) {}

  struct Stats {
    std::uint64_t displayed = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t per_type[4] = {0, 0, 0, 0};  ///< by VideoKind
    double mean_abs_jitter_ms = 0.0;  ///< |inter-arrival - nominal period|
    double max_abs_jitter_ms = 0.0;
    double mean_latency_ms = 0.0;  ///< arrival - pts
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] bool eos() const noexcept { return eos_; }
  [[nodiscard]] const std::vector<rt::Time>& arrival_times() const noexcept {
    return arrivals_;
  }

  /// Simulate the user resizing the window: informs the upstream component.
  void user_resize(int width, int height);

  [[nodiscard]] StringSet control_emits() const override {
    return {"window-resize", "frame-release"};
  }

 protected:
  void consume(Item x) override;
  void on_eos() override { eos_ = true; }

 private:
  double nominal_fps_;
  std::vector<rt::Time> arrivals_;
  std::uint64_t corrupt_ = 0;
  std::uint64_t per_type_[4] = {0, 0, 0, 0};
  double latency_sum_ms_ = 0.0;
  bool eos_ = false;
};

// ---- wire codec for netpipes -----------------------------------------------------

/// Encode a video frame for transmission: a fixed header plus zero padding
/// up to the frame's synthetic compressed size, so the link sees realistic
/// bytes. Returns the wire item, written in place (net::MarshalFilter's
/// codec contract); a non-frame item encodes as an empty payload.
[[nodiscard]] Item encode_frame(const Item& x);

/// Decode; returns Item::nil() for malformed packets.
[[nodiscard]] Item decode_frame(std::span<const std::uint8_t> bytes);

}  // namespace infopipe::media
