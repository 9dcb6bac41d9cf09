#include "media/mpeg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "core/realization.hpp"

namespace infopipe::media {

namespace {

std::size_t nominal_size(const StreamConfig& c, FrameType t) {
  switch (t) {
    case FrameType::kI:
      return c.i_bytes;
    case FrameType::kP:
      return c.p_bytes;
    case FrameType::kB:
      return c.b_bytes;
  }
  return 0;
}

}  // namespace

// ---- MpegFileSource -----------------------------------------------------------

MpegFileSource::MpegFileSource(std::string name, StreamConfig cfg)
    : PassiveSource(std::move(name)),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed ^ std::hash<std::string>{}(this->name())) {}

Typespec MpegFileSource::output_offer(int) const {
  return Typespec{{props::kItemType, std::string("video")},
                  {props::kFormats, StringSet{"mpeg"}},
                  {props::kFrameRate, cfg_.fps},
                  {props::kWidth, Range::exactly(cfg_.width)},
                  {props::kHeight, Range::exactly(cfg_.height)}};
}

void MpegFileSource::handle_event(const Event& e) {
  if (e.type != kEventSeek) return;
  const auto* target = e.get<std::uint64_t>();
  if (target == nullptr) return;
  // Snap to the GOP boundary so the first frame after the seek is an I
  // frame — the decoder needs a reference to restart from.
  const auto gop = static_cast<std::uint64_t>(cfg_.gop.size());
  next_ = std::min(*target - *target % gop, cfg_.frames);
  last_ref_emitted_ = VideoFrame::kNoRef;
}

Item MpegFileSource::generate() {
  if (next_ >= cfg_.frames) return Item::eos();
  const std::uint64_t no = next_++;
  const FrameType t =
      static_cast<FrameType>(cfg_.gop[no % cfg_.gop.size()]);
  VideoFrame f;
  f.frame_no = no;
  f.type = t;
  if (t == FrameType::kI) {
    last_ref_emitted_ = no;
  } else {
    f.ref = last_ref_emitted_;  // P/B predict from the latest reference
    if (t == FrameType::kP) last_ref_emitted_ = no;
  }
  f.width = cfg_.width;
  f.height = cfg_.height;
  f.pts = static_cast<rt::Time>(std::llround(
      static_cast<double>(no) * 1e9 / cfg_.fps));
  const double nominal = static_cast<double>(nominal_size(cfg_, t));
  std::uniform_real_distribution<double> u(1.0 - cfg_.size_jitter,
                                           1.0 + cfg_.size_jitter);
  f.compressed_bytes = static_cast<std::size_t>(nominal * u(rng_));
  f.content_id = static_cast<std::uint32_t>(no * 2654435761u);

  Item x = Item::of<VideoFrame>(f);
  x.seq = no;
  x.timestamp = pipeline_now();
  x.kind = kind_of(t);
  x.size_bytes = f.compressed_bytes;
  return x;
}

// ---- MpegDecoder ---------------------------------------------------------------

MpegDecoder::MpegDecoder(std::string name)
    : FunctionComponent(std::move(name)) {}

Typespec MpegDecoder::input_requirement(int) const {
  return Typespec{{props::kFormats, StringSet{"mpeg"}}};
}

Typespec MpegDecoder::transform_downstream(const Typespec& in, int,
                                           int) const {
  Typespec out = in;
  out.set(props::kFormats, StringSet{"raw"});
  return out;
}

void MpegDecoder::handle_event(const Event& e) {
  if (e.type == kEventFrameRelease) {
    if (const int* upto = e.get<int>()) {
      const auto seq = static_cast<std::uint64_t>(*upto);
      std::erase_if(refs_, [seq](const Item& f) { return f.seq <= seq; });
    }
  }
}

Item MpegDecoder::convert(Item x) {
  const VideoFrame* in = x.payload<VideoFrame>();
  if (in == nullptr) return Item::nil();

  // Simulated decode cost: a long-running, preemptible data function.
  if (cost_per_kb_ > 0 && realization() != nullptr) {
    const rt::Time cost = static_cast<rt::Time>(
        static_cast<double>(cost_per_kb_) *
        (static_cast<double>(in->compressed_bytes) / 1024.0));
    realization()->runtime().sleep_for(cost);
  }

  VideoFrame out = *in;
  out.decoded = true;

  // Reference tracking: each P/B names the frame it predicts from. If that
  // reference was never decoded OK (dropped upstream, lost in the network,
  // or itself corrupt), this frame decodes corrupt.
  switch (in->type) {
    case FrameType::kI:
      ok_refs_.clear();  // a new GOP: older references are obsolete
      ok_refs_.insert(in->frame_no);
      refs_.clear();
      break;
    case FrameType::kP:
      out.corrupt = in->ref == VideoFrame::kNoRef ||
                    ok_refs_.count(in->ref) == 0;
      if (!out.corrupt) ok_refs_.insert(in->frame_no);
      break;
    case FrameType::kB:
      out.corrupt = in->ref == VideoFrame::kNoRef ||
                    ok_refs_.count(in->ref) == 0;
      break;
  }

  ++stats_.decoded;
  if (out.corrupt) ++stats_.corrupt;
  ++stats_.per_type[static_cast<std::size_t>(kind_of(in->type))];

  Item y = Item::of<VideoFrame>(out);
  y.seq = x.seq;
  y.timestamp = x.timestamp;
  y.kind = x.kind;
  y.size_bytes = static_cast<std::size_t>(out.width) *
                 static_cast<std::size_t>(out.height) * 3 / 2;  // raw YUV420

  // Keep decoded I/P frames as references (shared with downstream) until a
  // kEventFrameRelease or the next I frame (§2.2's decoder example).
  if (in->type != FrameType::kB && !out.corrupt) refs_.push_back(y);
  return y;
}

// ---- FrameDropFilter ------------------------------------------------------------

void FrameDropFilter::set_level(int level) noexcept {
  level_ = std::clamp(level, 0, 3);
}

void FrameDropFilter::handle_event(const Event& e) {
  if (e.type == kEventDropLevel) {
    if (const int* l = e.get<int>()) set_level(*l);
  } else if (e.type == kEventQualityHint) {
    if (const double* q = e.get<double>()) {
      set_level(3 - static_cast<int>(std::lround(std::clamp(*q, 0.0, 1.0) * 3)));
    }
  }
}

void FrameDropFilter::push(Item x) {
  bool drop = false;
  switch (x.kind) {
    case kKindB:
      drop = level_ >= 1;
      break;
    case kKindP:
      drop = level_ >= 2;
      break;
    case kKindI:
      drop = level_ >= 3;
      break;
    default:
      break;
  }
  if (drop) {
    ++stats_.dropped[static_cast<std::size_t>(
        std::clamp(x.kind, 0, 3))];
    return;
  }
  ++stats_.passed;
  push_next(std::move(x));
}

// ---- Resizer --------------------------------------------------------------------

void Resizer::handle_event(const Event& e) {
  if (e.type == kEventWindowResize) {
    if (const auto* wh = e.get<std::pair<int, int>>()) {
      width_ = wh->first;
      height_ = wh->second;
    }
  }
}

Item Resizer::convert(Item x) {
  const VideoFrame* in = x.payload<VideoFrame>();
  if (in == nullptr || (in->width == width_ && in->height == height_)) {
    return x;
  }
  VideoFrame out = *in;
  out.width = width_;
  out.height = height_;
  Item y = Item::of<VideoFrame>(out);
  y.seq = x.seq;
  y.timestamp = x.timestamp;
  y.kind = x.kind;
  y.size_bytes = static_cast<std::size_t>(width_) *
                 static_cast<std::size_t>(height_) * 3 / 2;
  return y;
}

// ---- VideoDisplay ----------------------------------------------------------------

void VideoDisplay::consume(Item x) {
  arrivals_.push_back(pipeline_now());
  const VideoFrame* f = x.payload<VideoFrame>();
  if (f != nullptr) {
    if (f->corrupt) ++corrupt_;
    ++per_type_[static_cast<std::size_t>(std::clamp(x.kind, 0, 3))];
    latency_sum_ms_ +=
        static_cast<double>(pipeline_now() - f->pts) / 1e6;
    // Tell the decoder that frames up to this one are no longer needed
    // (the §2.2 shared-reference-frame protocol). The decoder may be
    // several components upstream; broadcast reaches it wherever it is.
    broadcast(Event{kEventFrameRelease, static_cast<int>(x.seq)});
  }
}

void VideoDisplay::user_resize(int width, int height) {
  control_upstream(Event{kEventWindowResize, std::make_pair(width, height)});
}

VideoDisplay::Stats VideoDisplay::stats() const {
  Stats s;
  s.displayed = arrivals_.size();
  s.corrupt = corrupt_;
  std::copy(std::begin(per_type_), std::end(per_type_),
            std::begin(s.per_type));
  if (arrivals_.size() >= 2) {
    const double nominal_ms = 1e3 / nominal_fps_;
    double sum = 0.0;
    double mx = 0.0;
    for (std::size_t i = 1; i < arrivals_.size(); ++i) {
      const double dt_ms =
          static_cast<double>(arrivals_[i] - arrivals_[i - 1]) / 1e6;
      const double dev = std::abs(dt_ms - nominal_ms);
      sum += dev;
      mx = std::max(mx, dev);
    }
    s.mean_abs_jitter_ms = sum / static_cast<double>(arrivals_.size() - 1);
    s.max_abs_jitter_ms = mx;
  }
  if (!arrivals_.empty()) {
    s.mean_latency_ms = latency_sum_ms_ / static_cast<double>(arrivals_.size());
  }
  return s;
}

// ---- wire codec ------------------------------------------------------------------

namespace {
constexpr std::size_t kHeaderBytes = 48;
constexpr std::uint32_t kMagic = 0x49504631;  // "IPF1"

template <typename T>
void put(std::uint8_t* b, std::size_t at, T v) {
  std::memcpy(b + at, &v, sizeof v);
}
template <typename T>
T get(std::span<const std::uint8_t> b, std::size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}
}  // namespace

Item encode_frame(const Item& x) {
  const VideoFrame* f = x.payload<VideoFrame>();
  if (f == nullptr) return Item::of_bytes(nullptr, 0);
  const std::size_t n = std::max(kHeaderBytes, f->compressed_bytes);
  return Item::of_bytes(n, [&](std::uint8_t* b) {
    std::memset(b, 0, n);  // the block is recycled: padding must be written
    put(b, 0, kMagic);
    put(b, 4, static_cast<std::uint32_t>(f->content_id));
    put(b, 8, f->frame_no);
    put(b, 16, f->pts);
    put(b, 24, static_cast<std::int32_t>(f->width));
    put(b, 28, static_cast<std::int32_t>(f->height));
    put(b, 32, static_cast<std::uint32_t>(f->compressed_bytes));
    put(b, 36, static_cast<std::uint8_t>(to_char(f->type)));
    put(b, 40, f->ref);
  });
}

Item decode_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes || get<std::uint32_t>(bytes, 0) != kMagic) {
    return Item::nil();
  }
  VideoFrame f;
  f.content_id = get<std::uint32_t>(bytes, 4);
  f.frame_no = get<std::uint64_t>(bytes, 8);
  f.pts = get<rt::Time>(bytes, 16);
  f.width = get<std::int32_t>(bytes, 24);
  f.height = get<std::int32_t>(bytes, 28);
  f.compressed_bytes = get<std::uint32_t>(bytes, 32);
  f.type = static_cast<FrameType>(get<std::uint8_t>(bytes, 36));
  f.ref = get<std::uint64_t>(bytes, 40);
  Item x = Item::of<VideoFrame>(f);
  x.kind = kind_of(f.type);
  x.size_bytes = f.compressed_bytes;
  return x;
}

}  // namespace infopipe::media
