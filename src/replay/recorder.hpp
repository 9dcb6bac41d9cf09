// ScheduleRecorder (ip_replay): the TapSink that turns a live run into a
// replay::Trace.
//
// Usage around a ShardGroup run:
//
//   replay::ScheduleRecorder rec;
//   rec.attach(group);              // map runtimes/pools -> shard ids
//   rec.install();                 // taps live from here
//   ... run the flow ...
//   rec.uninstall();               // group must be stopped/quiescent first
//   rec.note_flow("frames", probe.digest(), probe.items());
//   replay::Trace t = rec.finish();
//
// Until install(), the tap call sites stay dormant: the hot path pays one
// relaxed load and a branch per tap.
//
// Recording a run is also how its hops are traced: the recorder keeps the
// kHop frames (blocks, drops, control dispatches, coroutine hand-offs)
// beside the decisions, interning their site names into Trace::sites, and
// Trace::to_json_lines() renders the lot. A plain rt::Runtime run can be
// recorded without attach(); its frames carry no shard.
//
// Frames are stamped with nanoseconds since the recorder's construction on
// one process-wide steady clock, giving every shard's decisions a common
// timeline (the shard runtimes' RealClocks tick the same way). The frame
// buffer is bounded (kMaxFrames); overflow increments dropped() rather
// than growing without bound — a truncated trace still replays the prefix.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "replay/hooks.hpp"
#include "replay/trace.hpp"

namespace infopipe::shard {
class ShardGroup;
}

namespace infopipe::replay {

class ScheduleRecorder : public TapSink {
 public:
  /// Frame-buffer bound: 1M frames = 32 MB encoded, minutes of a busy run.
  static constexpr std::size_t kMaxFrames = 1u << 20;

  ScheduleRecorder();
  ~ScheduleRecorder() override;

  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// Maps each shard's runtime and pool to its id so frames carry shard
  /// attribution. Call before install(); safe on an unlaunched group.
  void attach(shard::ShardGroup& group);

  /// Makes this the process tap sink. Install around quiescent groups only.
  void install();
  /// Removes this sink if installed. Must be called while no shard thread
  /// can still be inside a tap — i.e. after ShardGroup::stop() or before
  /// launch(); the destructor calls it as a backstop.
  void uninstall();
  [[nodiscard]] bool installed() const noexcept {
    return installed_.load(std::memory_order_acquire);
  }

  /// Records a flow's final digest (call after the run, before finish()).
  void note_flow(const std::string& name, std::uint64_t digest,
                 std::uint64_t items);
  /// Drops a kMark frame carrying `tag` — a caller-defined timeline label.
  void note_mark(std::uint64_t tag);

  /// Snapshots everything into a Trace (meta from config() + attach()).
  [[nodiscard]] Trace finish();

  /// Publishes replay.frames.* / replay.dropped counters into `reg` as a
  /// snapshot-time collector. The recorder must outlive the registry use;
  /// the destructor removes the collector.
  void publish(obs::MetricsRegistry& reg);

  [[nodiscard]] std::uint64_t frames_recorded() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  // -- TapSink (called from shard kernel threads) ---------------------------
  void on_dispatch(const void* rtm, std::uint64_t tid, int msg_type) override;
  void on_timer(const void* rtm, std::int64_t when,
                std::uint64_t target) override;
  void on_chan_push(const void* chan, std::uint64_t name_hash,
                    std::uint64_t first_seq, std::uint64_t n,
                    int shard) override;
  void on_chan_pop(const void* chan, std::uint64_t name_hash,
                   std::uint64_t first_seq, std::uint64_t n,
                   int shard) override;
  void on_migration(std::uint32_t section, int from, int to,
                    MigrationPhase phase) override;
  void on_stash(const void* pool, StashEdge edge, std::uint64_t n) override;
  void on_shared_access(const void* obj, bool write) override;
  void on_scale(const void* rtm, const void* pool, int shard, bool added,
                int live_after) override;
  void on_hop(const void* rtm, Hop hop, const char* site, std::int64_t a,
              std::int64_t b) override;

 private:
  [[nodiscard]] std::int64_t now_ns() const noexcept;
  [[nodiscard]] std::uint8_t shard_of(const void* obj) const;
  void push_chan_frame(FrameKind kind, std::uint64_t name_hash,
                       std::uint64_t first_seq, std::uint64_t n, int shard);
  /// Counts and stores `f`, attributing it to `owner`'s shard when given
  /// (kShardUnknown when unmapped) and interning `site`, when given, into
  /// aux32.
  void push_frame(Frame f, const void* owner = nullptr,
                  const char* site = nullptr);

  const std::chrono::steady_clock::time_point t0_;
  std::atomic<bool> installed_{false};

  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<Trace::Flow> flows_;
  std::vector<std::string> sites_;
  std::unordered_map<std::string, std::uint32_t> site_index_;
  std::unordered_map<const void*, std::uint8_t> shard_of_;
  std::uint8_t n_shards_ = 0;

  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> by_kind_[kNumFrameKinds] = {};

  obs::MetricsRegistry* published_in_ = nullptr;
  std::uint64_t collector_id_ = 0;
};

}  // namespace infopipe::replay
