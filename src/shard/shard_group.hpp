// ShardGroup: N runtimes, N kernel threads, one doorbell each (ip_shard).
//
// Everything inside one rt::Runtime stays single-kernel-threaded — that is
// the substrate the whole middleware's no-locks-in-components guarantee
// rests on. A ShardGroup scales out WITHOUT touching that invariant: it owns
// n_shards independent runtimes, each hosted by its own kernel thread
// running Runtime::run_service(), i.e. run-until-quiescent then park on the
// shard's Doorbell. Cross-shard traffic (ShardChannel items, forwarded
// control events, run_on() calls) enters a shard exclusively through
// rt::Runtime::post_external — the one thread-safe Runtime entry point —
// whose external notifier rings the doorbell, so idle shards sleep and
// never spin.
//
// run_on() is the coordination primitive: it executes a function ON a
// shard's kernel thread (inside a dedicated service user-level thread) and
// blocks the caller until it returns. All inspection of a live shard's
// non-atomic state (metrics registries, realization counters) goes through
// it; that is what keeps the whole module clean under TSan.
//
// The topology is ELASTIC (ARCHITECTURE §19): add_shard() spins up one more
// pinned runtime at runtime, retire_shard() halts and joins one. Shard ids
// are never reused or renumbered — a retired shard keeps its slot, its
// runtime object and its final counters (the retired-channel retention rule
// extended to whole shards), so every index that escaped into channels,
// plans or traces stays valid. size() therefore counts every shard ever
// created; is_live()/live_shards() describe the current topology. A group
// that never calls either keeps its construction-time topology.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/doorbell.hpp"
#include "rt/runtime.hpp"
#include "shard/topology.hpp"

namespace infopipe::shard {

class ShardGroup {
 public:
  /// Construction knobs beyond the per-runtime options. The defaults give
  /// the production shape: real-time clocks (cross-shard flows need a common
  /// notion of time; free-running virtual clocks would diverge) and one
  /// kernel thread per shard after launch().
  ///
  /// `manual` inverts that for deterministic testing: no kernel threads are
  /// ever started, run_on() executes inline on the caller, and step_until()
  /// drives every shard runtime round-robin in lockstep — combined with a
  /// virtual clock_factory the whole multi-shard execution replays
  /// bit-identically on one kernel thread.
  struct GroupOptions {
    rt::RuntimeOptions runtime;
    /// Clock for each shard runtime; default builds rt::RealClock. Also
    /// used for shards added later — an elastic manual group stays virtual.
    std::function<std::unique_ptr<rt::Clock>()> clock_factory;
    bool manual = false;
    /// NUMA layout used for memory placement (each shard's payload pool and
    /// each cross-shard channel ring land on the consumer shard's node).
    /// Defaults to Topology::detect(); inject a synthetic mapping in tests.
    std::optional<Topology> topology;
  };

  /// Hard cap on shards ever created (initial + added); slots are
  /// preallocated so growth never reallocates under concurrent readers.
  static constexpr int kMaxShards = 64;

  /// Builds n_shards runtimes over real-time clocks. Nothing runs until
  /// launch().
  explicit ShardGroup(int n_shards, rt::RuntimeOptions options = {});
  ShardGroup(int n_shards, GroupOptions options);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Total shards ever created, retired included — the valid index range.
  [[nodiscard]] int size() const noexcept {
    return n_shards_.load(std::memory_order_acquire);
  }
  /// Shards currently accepting work.
  [[nodiscard]] int live_count() const noexcept {
    return live_.load(std::memory_order_acquire);
  }
  [[nodiscard]] rt::Runtime& runtime(int shard) { return *shard_at(shard).rtm; }
  [[nodiscard]] rt::Doorbell& doorbell(int shard) {
    return shard_at(shard).bell;
  }

  /// The NUMA layout this group places memory by (injected or probed).
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Node hosting a shard's pinned kernel thread under this group's pinning
  /// rule (core `shard % hardware_concurrency`); -1 when the topology is
  /// flat, i.e. no placement preference exists.
  [[nodiscard]] int node_of_shard(int shard) const noexcept;

  /// Grows the topology by one shard, returning its id (== old size()).
  /// The new runtime gets the same clock factory and runtime options as its
  /// siblings, its pool lands on its NUMA node, and — when the group is
  /// running — a pinned host kernel thread starts immediately. Existing
  /// realizations do not use it until sections are spliced onto it
  /// (ShardedRealization::sync_topology + migrate_section). Throws when
  /// the kMaxShards cap is reached.
  int add_shard();

  /// Retires a shard: marks it dead to new work, halts its runtime and
  /// joins its host thread (when running). The caller must have evacuated
  /// it first (ShardedRealization::evacuate_shard) — retirement is a
  /// thread-lifecycle operation, not a migration. The slot, runtime and
  /// counters are retained; the id is never reused. Throws when the shard
  /// is unknown or already retired, or it is the last live shard.
  void retire_shard(int shard);

  /// False for out-of-range or retired shards.
  [[nodiscard]] bool is_live(int shard) const noexcept;

  /// Ids of the currently live shards, ascending.
  [[nodiscard]] std::vector<int> live_shards() const;

  /// Starts one kernel thread per live shard (idempotent). Each thread pins
  /// itself to core `shard % hardware_concurrency` (best effort, Linux
  /// only) and enters run_service(). No-op in manual mode.
  void launch();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool manual() const noexcept { return manual_; }

  /// Manual mode only: advances every live shard runtime to `t`,
  /// round-robin, until a full round dispatches nothing new — so
  /// cross-shard messages posted during one shard's turn are drained by the
  /// others before the step returns. All live shard clocks end at `t`.
  void step_until(rt::Time t);

  /// Like step_until(t), but each round visits the shards in `order`
  /// (indices into [0, size()); entries may repeat, retired shards are
  /// skipped, live shards absent from the order are appended in index order
  /// so no shard starves). This is the trace/fuzz-driven step mode
  /// (ip_replay): a Replayer reproduces the recorded per-window turn order,
  /// a ScheduleFuzzer perturbs it — and thread transparency says the flow's
  /// output must not care.
  void step_until(rt::Time t, const std::vector<int>& order);

  /// Halts every shard, rings the doorbells, joins the kernel threads.
  /// Idempotent. Rethrows the first exception that escaped a shard's
  /// scheduling loop, if any.
  void stop();

  /// Executes `fn` on the shard's kernel thread (inside the shard's service
  /// user-level thread, so `fn` may use the full Runtime API, spawn
  /// threads, construct Realizations…). Blocks until `fn` returns;
  /// rethrows what it threw. Throws rt::RuntimeError if the group is not
  /// running, the shard is retired, or the shard's host thread has died. In
  /// manual mode `fn` runs inline on the caller (there is only one kernel
  /// thread by design).
  void run_on(int shard, std::function<void()> fn);

  /// run_on returning a value.
  template <typename F>
  auto call_on(int shard, F fn) -> decltype(fn()) {
    using R = decltype(fn());
    std::optional<R> out;
    run_on(shard, [&out, &fn] { out.emplace(fn()); });
    return std::move(*out);
  }

  /// True when the calling kernel thread IS the shard's host thread (set
  /// thread-locally by host_loop). Lets code that may run either from
  /// outside or from a run_on() payload pick direct access over a nested
  /// run_on() — which would deadlock, since the service thread executing the
  /// payload is the one that would have to serve the nested request. Always
  /// false in manual mode (no host threads exist; run_on is inline anyway).
  [[nodiscard]] bool on_shard_thread(int shard) const noexcept;

  /// Aggregates every shard's registry snapshot, each row prefixed
  /// `shard<i>.`; `when` is the latest shard timestamp. Snapshots are taken
  /// on the owning shard threads (run_on) while running, directly when not —
  /// retired shards (host joined) are read directly and still report their
  /// final counters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

 private:
  struct Shard {
    std::unique_ptr<rt::Runtime> rtm;
    rt::Doorbell bell;
    std::thread host;
    rt::ThreadId service_tid = rt::kNoThread;
    std::atomic<bool> dead{false};     ///< host thread exited (error or halt)
    std::atomic<bool> retired{false};  ///< retired from the live topology
    std::exception_ptr error;          ///< guarded by err_mutex_
  };

  /// Constructs the shard in slot `i` (runtime over the group clock
  /// factory, doorbell notifier, service ULT, NUMA-placed pool). Does not
  /// publish it — the caller stores n_shards_ after any thread start.
  Shard& make_shard(int i);

  /// Bounds-checked slot access against the published count. Slots are
  /// stable for the group's lifetime, so this is safe concurrent with
  /// add_shard() publishing new ones.
  [[nodiscard]] Shard& shard_at(int shard) const {
    if (shard < 0 || shard >= size()) {
      throw std::out_of_range("ShardGroup: shard " + std::to_string(shard) +
                              " out of range");
    }
    return *slots_[static_cast<std::size_t>(shard)];
  }

  void host_loop(int shard);

  /// Fixed slot array (kMaxShards entries): shard publication is the
  /// release store of n_shards_, never a reallocation.
  std::unique_ptr<std::unique_ptr<Shard>[]> slots_;
  std::atomic<int> n_shards_{0};
  std::atomic<int> live_{0};
  std::atomic<bool> running_{false};
  bool manual_ = false;
  Topology topo_;
  std::function<std::unique_ptr<rt::Clock>()> clock_factory_;
  rt::RuntimeOptions runtime_opts_;
  std::mutex err_mutex_;
  std::mutex topo_mu_;  ///< serializes add_shard/retire_shard/launch/stop
};

}  // namespace infopipe::shard
