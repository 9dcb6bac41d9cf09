#include "replay/recorder.hpp"

#include "core/config.hpp"
#include "shard/shard_group.hpp"

namespace infopipe::replay {

ScheduleRecorder::ScheduleRecorder() : t0_(std::chrono::steady_clock::now()) {
  frames_.reserve(4096);
}

ScheduleRecorder::~ScheduleRecorder() {
  uninstall();
  if (published_in_ != nullptr) {
    published_in_->remove_collector(collector_id_);
  }
}

void ScheduleRecorder::attach(shard::ShardGroup& group) {
  const std::lock_guard<std::mutex> lk(mu_);
  n_shards_ = static_cast<std::uint8_t>(group.size());
  for (int s = 0; s < group.size(); ++s) {
    rt::Runtime& rtm = group.runtime(s);
    shard_of_[static_cast<const void*>(&rtm)] =
        static_cast<std::uint8_t>(s);
    shard_of_[static_cast<const void*>(&rtm.pool())] =
        static_cast<std::uint8_t>(s);
  }
}

void ScheduleRecorder::install() {
  if (installed_.exchange(true, std::memory_order_acq_rel)) return;
  install_tap_sink(this);
}

void ScheduleRecorder::uninstall() {
  if (!installed_.exchange(false, std::memory_order_acq_rel)) return;
  install_tap_sink(nullptr);
}

std::int64_t ScheduleRecorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

std::uint8_t ScheduleRecorder::shard_of(const void* obj) const {
  // Callers hold mu_.
  const auto it = shard_of_.find(obj);
  return it == shard_of_.end() ? kShardUnknown : it->second;
}

namespace {

std::uint8_t shard_byte(int shard) {
  return shard >= 0 && shard < 0xff ? static_cast<std::uint8_t>(shard)
                                    : kShardUnknown;
}

}  // namespace

void ScheduleRecorder::push_frame(Frame f, const void* owner,
                                  const char* site) {
  total_.fetch_add(1, std::memory_order_relaxed);
  by_kind_[f.kind].fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lk(mu_);
  if (frames_.size() >= kMaxFrames) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (owner != nullptr) f.shard = shard_of(owner);
  if (site != nullptr) {
    const auto [it, fresh] = site_index_.try_emplace(
        site, static_cast<std::uint32_t>(sites_.size()));
    if (fresh) sites_.emplace_back(site);
    f.aux32 = it->second;
  }
  frames_.push_back(f);
}

void ScheduleRecorder::on_dispatch(const void* rtm, std::uint64_t tid,
                                   int msg_type) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kDispatch);
  f.t = now_ns();
  f.a = tid;
  f.aux32 = static_cast<std::uint32_t>(msg_type);
  push_frame(f, rtm);
}

void ScheduleRecorder::on_timer(const void* rtm, std::int64_t when,
                                std::uint64_t target) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kTimer);
  f.t = now_ns();
  f.a = target;
  f.b = static_cast<std::uint64_t>(when);
  push_frame(f, rtm);
}

void ScheduleRecorder::on_chan_push(const void* /*chan*/,
                                    std::uint64_t name_hash,
                                    std::uint64_t first_seq, std::uint64_t n,
                                    int shard) {
  push_chan_frame(FrameKind::kChanPush, name_hash, first_seq, n, shard);
}

void ScheduleRecorder::on_chan_pop(const void* /*chan*/,
                                   std::uint64_t name_hash,
                                   std::uint64_t first_seq, std::uint64_t n,
                                   int shard) {
  push_chan_frame(FrameKind::kChanPop, name_hash, first_seq, n, shard);
}

void ScheduleRecorder::push_chan_frame(FrameKind kind,
                                       std::uint64_t name_hash,
                                       std::uint64_t first_seq,
                                       std::uint64_t n, int shard) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(kind);
  f.shard = shard_byte(shard);
  f.aux32 = static_cast<std::uint32_t>(n);
  f.t = now_ns();
  f.a = name_hash;
  f.b = first_seq;
  push_frame(f);
}

void ScheduleRecorder::on_migration(std::uint32_t section, int from, int to,
                                    MigrationPhase phase) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kMigration);
  f.shard = shard_byte(from);
  f.aux16 = static_cast<std::uint16_t>(phase);
  f.aux32 = section;
  f.t = now_ns();
  f.a = static_cast<std::uint64_t>(from);
  f.b = static_cast<std::uint64_t>(to);
  push_frame(f);
}

void ScheduleRecorder::on_stash(const void* pool, StashEdge edge,
                                std::uint64_t n) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kStash);
  f.aux16 = static_cast<std::uint16_t>(edge);
  f.t = now_ns();
  f.a = n;
  push_frame(f, pool);
}

void ScheduleRecorder::on_shared_access(const void* /*obj*/,
                                        bool /*write*/) {
  // Accesses are the HBChecker's input, not a schedule decision; the
  // recorder deliberately does not trace them.
}

void ScheduleRecorder::on_scale(const void* rtm, const void* pool, int shard,
                                bool added, int live_after) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kScale);
  f.shard = shard_byte(shard);
  f.aux16 = added ? 0 : 1;
  f.aux32 = static_cast<std::uint32_t>(live_after);
  f.t = now_ns();
  f.a = static_cast<std::uint64_t>(shard);
  if (added && rtm != nullptr) {
    // A freshly added shard's runtime/pool were unknown at attach() time:
    // extend the attribution map so its later frames carry the shard id.
    // meta.n_shards deliberately stays the count at attach() — the replayer
    // reconstructs growth from the kScale frames themselves.
    const std::lock_guard<std::mutex> lk(mu_);
    shard_of_[rtm] = f.shard;
    if (pool != nullptr) shard_of_[pool] = f.shard;
  }
  push_frame(f);
}

void ScheduleRecorder::on_hop(const void* rtm, Hop hop, const char* site,
                              std::int64_t a, std::int64_t b) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kHop);
  f.aux16 = static_cast<std::uint16_t>(hop);
  f.t = now_ns();
  f.a = static_cast<std::uint64_t>(a);
  f.b = static_cast<std::uint64_t>(b);
  push_frame(f, rtm, site == nullptr ? "" : site);
}

void ScheduleRecorder::note_flow(const std::string& name,
                                 std::uint64_t digest, std::uint64_t items) {
  const std::lock_guard<std::mutex> lk(mu_);
  flows_.push_back(Trace::Flow{name, digest, items});
}

void ScheduleRecorder::note_mark(std::uint64_t tag) {
  Frame f;
  f.kind = static_cast<std::uint8_t>(FrameKind::kMark);
  f.shard = kShardUnknown;
  f.t = now_ns();
  f.a = tag;
  push_frame(f);
}

Trace ScheduleRecorder::finish() {
  Trace t;
  t.meta.version = kTraceVersion;
  t.meta.seed = config().seed;
  const std::lock_guard<std::mutex> lk(mu_);
  t.meta.n_shards = n_shards_;
  t.flows = flows_;
  t.sites = sites_;
  t.frames = frames_;
  for (const Frame& f : t.frames) {
    if (f.frame_kind() != FrameKind::kHop && f.t > t.meta.end_time_ns) {
      t.meta.end_time_ns = f.t;
    }
  }
  return t;
}

void ScheduleRecorder::publish(obs::MetricsRegistry& reg) {
  published_in_ = &reg;
  collector_id_ = reg.add_collector([this](obs::MetricsSnapshot& s) {
    s.add_counter("replay.frames.total",
                  total_.load(std::memory_order_relaxed));
    s.add_counter("replay.frames.dropped",
                  dropped_.load(std::memory_order_relaxed));
    for (int k = 0; k < kNumFrameKinds; ++k) {
      s.add_counter(
          std::string("replay.frames.") + to_string(static_cast<FrameKind>(k)),
          by_kind_[k].load(std::memory_order_relaxed));
    }
  });
}

}  // namespace infopipe::replay
