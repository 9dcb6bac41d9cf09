// Flow tracing: per-item hop events in a bounded ring buffer (ip_obs).
//
// Where the metrics registry aggregates, the tracer records *individual*
// hops — an item pushed, pulled, handed to a coroutine, a thread blocking on
// a buffer, a control event delivered — each timestamped by the runtime
// clock. The ring is bounded: when full, the oldest event is overwritten
// and counted in dropped(), so tracing a long run costs constant memory.
//
// Tracing is OFF by default. The facade is built so the disabled path costs
// one predictable branch (`enabled()` test) at each instrumentation point,
// and compiles away entirely when IP_OBS_ENABLE_TRACING is defined to 0 —
// this is what keeps the metrics facade within the <= 5% overhead budget on
// the hot-path benches.
//
// Sinks observe events as they are recorded (in addition to the ring):
// JsonLinesSink streams them as JSON lines to a file for offline analysis,
// MemorySink accumulates them for tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rt/types.hpp"

namespace infopipe::obs {

/// What happened to an item (or to the thread moving it).
enum class Hop : std::uint8_t {
  kPush,             ///< item pushed into a component
  kPull,             ///< item pulled from a component
  kHandOff,          ///< synchronous coroutine channel hand-off
  kBufferBlock,      ///< thread blocked on a full/empty buffer
  kBufferUnblock,    ///< blocked thread resumed
  kControlDispatch,  ///< control event delivered to a component
  kTimerFire,        ///< runtime timer fired
  kDrop,             ///< item dropped (full buffer / switch misroute / link)
  kShardHop,         ///< items crossed shards via a cut buffer (a=from, b=to)
  kMigration,        ///< a section was migrated between shards (a=from, b=to)
};

[[nodiscard]] const char* to_string(Hop h);

struct TraceEvent {
  rt::Time t = 0;
  Hop hop = Hop::kPush;
  std::string site;     ///< component / subsystem name
  std::int64_t a = 0;   ///< hop-specific (e.g. event type, block ns)
  std::int64_t b = 0;   ///< hop-specific (e.g. buffer fill)

  [[nodiscard]] std::string to_json() const;
};

/// Receives every recorded event, in order. on_flush() is called when the
/// tracer is drained or destroyed.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
  virtual void on_flush() {}
};

/// Accumulates events in memory; the sink for tests.
class MemorySink : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override { events_.push_back(e); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams events as JSON lines ({"t":...,"hop":"push",...}\n) to a file.
class JsonLinesSink : public TraceSink {
 public:
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;

  JsonLinesSink(const JsonLinesSink&) = delete;
  JsonLinesSink& operator=(const JsonLinesSink&) = delete;

  [[nodiscard]] bool ok() const noexcept { return f_ != nullptr; }

  void on_event(const TraceEvent& e) override;
  void on_flush() override;

 private:
  std::FILE* f_ = nullptr;
};

class FlowTracer {
 public:
  using TimeSource = std::function<rt::Time()>;

  explicit FlowTracer(std::size_t capacity = 4096);

  void set_time_source(TimeSource fn) { now_ = std::move(fn); }

  /// Turning tracing on/off; record() is a no-op while disabled.
  void enable(bool on = true) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Resizes the ring (drops buffered events).
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Sinks see events as they are recorded, even those later overwritten in
  /// the ring.
  void add_sink(std::shared_ptr<TraceSink> sink);
  void clear_sinks();

  /// Records one hop (timestamped now). Cheap no-op while disabled.
  void record(Hop hop, const char* site, std::int64_t a = 0,
              std::int64_t b = 0) {
    if (!enabled_) return;
    record_slow(hop, site, a, b);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events recorded since construction / last drain, including overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Returns the buffered events oldest-first and empties the ring; flushes
  /// sinks.
  std::vector<TraceEvent> drain();

 private:
  void record_slow(Hop hop, const char* site, std::int64_t a, std::int64_t b);

  TimeSource now_;
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;  ///< live events in the ring
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::shared_ptr<TraceSink>> sinks_;
};

}  // namespace infopipe::obs

// Compile-time facade: instrumentation sites use IP_OBS_TRACE so a build
// with -DIP_OBS_ENABLE_TRACING=0 removes tracing entirely (not even the
// enabled() branch remains).
#ifndef IP_OBS_ENABLE_TRACING
#define IP_OBS_ENABLE_TRACING 1
#endif
#if IP_OBS_ENABLE_TRACING
#define IP_OBS_TRACE(tracer, ...) (tracer).record(__VA_ARGS__)
#else
#define IP_OBS_TRACE(tracer, ...) ((void)0)
#endif
