// ShardedRealization: one pipeline, many cores (ip_shard).
//
// Takes the application's pipeline exactly as a single-runtime Realization
// would, partitions its plan across a ShardGroup (whole sections only —
// partition() cuts exclusively at passive buffer boundaries), and realizes
// one ordinary Realization per non-empty shard on that shard's runtime. A
// cut buffer stays the one queue it is: its producer end binds to the
// upstream shard's runtime, its consumer end to the downstream shard's, and
// each shard's sub-pipeline reaches it through a small end adapter (a
// passive sink upstream, a passive source downstream). All single-runtime
// machinery — planning, coroutine glue, section locks, control dispatch
// while blocked — runs unchanged inside every shard; the only new mechanics
// are the cross-runtime wakes of a cut buffer's ends.
//
// Control events stay global: a broadcast posted on any shard (a component's
// broadcast(), end-of-stream, a start/stop from outside) is forwarded to
// every other shard through Realization::post_event_external, which enqueues
// it at the remote runtime's dispatch points — so deliver-while-blocked
// semantics (§3.2) hold across shards exactly as within one.
//
// Live migration (ip_balance): a migratable section can be moved to another
// shard while the rest of the flow keeps running. The protocol quiesces the
// two affected shards at their passive-buffer boundaries (every in-flight
// item lands in a Buffer, which survives realization teardown),
// re-partitions the cut set for the new assignment — a buffer's ends are
// rebound as sections separate or co-land, its queue stays where it is —
// and re-realizes the affected shards. Control events posted at the affected
// shards during the move are queued and replayed after the restart, in
// order. See begin_migration() and docs/ARCHITECTURE.md §13.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/introspect.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"
#include "core/realization.hpp"
#include "shard/shard_group.hpp"

namespace infopipe::shard {

/// What one completed migration did, for logs/metrics/tests.
struct MigrationOutcome {
  std::size_t section = 0;
  int from = -1;
  int to = -1;
  std::size_t cuts_collapsed = 0;  ///< cut buffers whose ends now share a shard
  std::size_t cuts_created = 0;    ///< buffers whose ends now span two shards
  std::size_t cuts_rebound = 0;    ///< persisting cuts with a moved end
};

class ShardedRealization : public RealizationHandle {
 public:
  /// Plans, partitions and realizes `p` across the group's shards. Launches
  /// the group if it is not running yet. The pipeline (and its components)
  /// must outlive this object, as with Realization.
  ShardedRealization(ShardGroup& group, const Pipeline& p);
  ~ShardedRealization() override;

  ShardedRealization(const ShardedRealization&) = delete;
  ShardedRealization& operator=(const ShardedRealization&) = delete;

  [[nodiscard]] ShardGroup& group() noexcept { return *group_; }
  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Partition& partition() const noexcept { return part_; }

  /// Buffers currently cut across two shards (a cut buffer is still the
  /// application's Buffer object, bound to two runtimes).
  [[nodiscard]] std::size_t channel_count() const {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    return cuts_.size();
  }
  [[nodiscard]] const Buffer& channel(std::size_t i) const {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    return *cuts_.at(i)->buffer;
  }
  [[nodiscard]] std::vector<Buffer*> live_channels();

  /// The per-shard realization; nullptr for a shard that got no sections.
  /// The pointer is invalidated by migrations touching that shard — cache
  /// the ShardedRealization and re-resolve instead of holding on to it.
  [[nodiscard]] Realization* shard_realization(int shard) {
    return reals_.at(static_cast<std::size_t>(shard)).get();
  }

  /// Where a named component landed after partitioning: the component, the
  /// shard realization hosting it, and the shard number. comp == nullptr if
  /// no shard hosts that name. This is the resolution surface behind the
  /// feedback toolkit's location-transparent endpoints. `real` and `shard`
  /// are a snapshot — a migration can move the component at any time, so
  /// durable references should keep only `comp` and re-resolve.
  struct Located {
    Component* comp = nullptr;
    Realization* real = nullptr;
    int shard = -1;
  };
  [[nodiscard]] Located find_component(std::string_view name);

  /// The buffer `name` while it is cut across shards, else nullptr. The
  /// object is the same before, during and after any cut, so a caller may
  /// keep the pointer; only its binding (from_shard/to_shard) changes.
  [[nodiscard]] Buffer* find_channel(std::string_view name);

  // -- lifecycle (thread-safe: events enqueue onto every shard) ---------------

  /// THE lifecycle entry point (RealizationHandle): a broadcast control
  /// event, delivered to every component on every shard.
  void control(const Event& e) override { post_event(e); }
  using RealizationHandle::control;  // the control(int) spelling

  /// Broadcasts kEventStart, then barriers on every shard's service thread:
  /// when start() returns, each driver has dispatched the event (FIFO among
  /// equal priorities), so a subsequent finished() cannot mistake
  /// "not started yet" for "done".
  void start() override;
  void stop() override { post_event(Event{kEventStop}); }
  void shutdown() override { post_event(Event{kEventShutdown}); }

  /// Broadcast to every component on every shard. Events addressed to a
  /// shard that is mid-migration are queued and replayed, in order, when the
  /// shard's realization is rebuilt.
  void post_event(const Event& e) override;

  /// Thread-safe targeted delivery that survives migrations: resolves which
  /// shard currently hosts `c` under the event lock, so an actuator can keep
  /// steering a component the rebalancer is moving around. A cut buffer's
  /// events go to its consumer end. Queued and replayed like post_event()
  /// while the hosting shard is mid-migration; dropped (like rt sends to
  /// dead threads) if no shard hosts `c`.
  void post_event_to_component(Component& c, const Event& e);

  /// Observer for broadcast events originating on any shard. Runs on the
  /// originating shard's kernel thread — treat it like a signal handler.
  void set_event_listener(std::function<void(const Event&)> fn) {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    listener_ = std::move(fn);
  }

  // -- live migration (ip_balance) --------------------------------------------

  /// Phased handle over one section move; obtained from begin_migration().
  /// Drive quiesce() → transfer() → resume() in order (migrate_section()
  /// does exactly that). Holds the structural-operations lock for its whole
  /// lifetime, so stats_snapshot()/finished()/teardown block meanwhile and
  /// try_sample_component() returns nullopt. If destroyed part-way, the
  /// destructor restarts whatever still exists so the flow is never left
  /// stopped.
  class Migration {
   public:
    ~Migration();
    Migration(const Migration&) = delete;
    Migration& operator=(const Migration&) = delete;
    Migration(Migration&& o) noexcept;
    Migration& operator=(Migration&&) = delete;

    /// Stops the two affected shards and waits until every driver on them
    /// parked at a passive boundary. Throws rt::RuntimeError on timeout;
    /// the destructor then restarts the affected shards, so a failed move
    /// leaves the flow running in its old placement.
    void quiesce(std::chrono::milliseconds timeout);
    /// Tears down the affected realizations, rebinds the ends of the
    /// buffers whose cut changed, and re-realizes. No item is copied; no
    /// data flows on the affected shards until resume().
    void transfer();
    /// Restarts the affected shards (if the flow was started) and replays
    /// control events queued during the move.
    void resume();

    [[nodiscard]] const MigrationOutcome& outcome() const noexcept {
      return out_;
    }

   private:
    friend class ShardedRealization;
    Migration(ShardedRealization& sr, std::size_t section, int to);

    ShardedRealization* sr_;
    std::unique_lock<std::mutex> lock_;  ///< op_mu_, held for the lifetime
    std::size_t section_;
    int from_;
    int to_;
    int phase_ = 0;  ///< 0 idle, 1 quiesced, 2 transferred, 3 resumed
    bool stop_posted_ = false;  ///< quiesce() reached the shards with a stop
    MigrationOutcome out_;
  };

  /// Starts a migration of `section` to shard `to`. Throws CompositionError
  /// when the section is pinned (Partition::migratable_section), the section
  /// or shard index is out of range, or `to` already hosts it. Only one
  /// migration (or other structural operation) runs at a time.
  [[nodiscard]] Migration begin_migration(std::size_t section, int to);

  /// Convenience: quiesce + transfer + resume.
  MigrationOutcome migrate_section(
      std::size_t section, int to,
      std::chrono::milliseconds quiesce_timeout =
          std::chrono::milliseconds(5000));

  // -- elastic topology (ARCHITECTURE §19) ------------------------------------

  /// Adopts shards the group grew AFTER this realization was built: sizes
  /// the per-shard realization/sub-pipeline tables up to group().size() so
  /// migrations can splice sections onto the new shards. Call after
  /// ShardGroup::add_shard(); migrate_section()/begin_migration() also
  /// self-adopt, so this is only needed when code indexes the new shard
  /// before any move lands on it. Never shrinks — retired shards keep their
  /// slots (and any final realization state).
  void sync_topology();

  /// Moves every section off `shard` onto the other live shards, placed by
  /// place() with thread counts as weights and every other section fixed,
  /// leaving it empty so the group can retire it. Throws CompositionError
  /// when a section on the shard is pinned, or when no other live shard
  /// exists. Returns one outcome per move, in section order. The flow keeps
  /// running throughout, exactly as for single migrations.
  std::vector<MigrationOutcome> evacuate_shard(
      int shard, std::chrono::milliseconds quiesce_timeout =
                     std::chrono::milliseconds(5000));

  /// Completed migrations. Bumps exactly once per successful resume();
  /// samplers holding per-shard bindings re-resolve when this changes.
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_acquire);
  }

  // -- section metadata (for the balance layer's planner) ---------------------

  [[nodiscard]] std::size_t section_count() const noexcept {
    return plan_.sections.size();
  }
  [[nodiscard]] int shard_of_section(std::size_t section);
  [[nodiscard]] bool section_migratable(std::size_t section) const {
    return part_.migratable(section);
  }
  /// The section's driver name (sections have no name of their own).
  [[nodiscard]] const std::string& section_name(std::size_t section) const {
    return plan_.sections.at(section).driver->name();
  }
  /// Driver thread + coroutine count — the planner's load-share proxy.
  [[nodiscard]] int section_threads(std::size_t section) const {
    return plan_.sections.at(section).thread_count();
  }

  // -- introspection ----------------------------------------------------------

  /// True once every driver on every shard has stopped.
  [[nodiscard]] bool finished();
  /// Polls finished() until true or the timeout elapses.
  bool wait_finished(std::chrono::milliseconds timeout);

  /// The full plan's decisions as data (RealizationHandle): the global
  /// section structure before partitioning, with threads counted across all
  /// shards. Immutable under migration — moves change placement, never the
  /// plan — so one PlanInfo can be shared by everything stamped from it.
  [[nodiscard]] PlanInfo plan_info() const override;

  /// Merged snapshot: drivers and uncut buffers from every shard plus one
  /// ChannelStats row per cut buffer; `when` is the latest shard clock. Each
  /// shard's counters are read on that shard's kernel thread.
  [[nodiscard]] StatsSnapshot stats_snapshot() override;

  /// Every shard's registry rows prefixed `shard<i>.` (a cut buffer's rows
  /// appear under its consumer shard as `shard<i>.chan.<name>.*`).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() override;

  /// Samples a component's state on whichever shard currently hosts it,
  /// without blocking behind a migration: returns nullopt when a structural
  /// operation is in flight (callers keep their previous value) or when no
  /// shard hosts the component. This — not call_on on a cached shard — is
  /// how the feedback endpoints read probe components, which also makes
  /// opposite-direction loops across one shard pair deadlock-free.
  std::optional<double> try_sample_component(
      std::string_view name, const std::function<double(Component&)>& fn);

  /// Partition summary plus each shard's plan description.
  [[nodiscard]] std::string describe() const override;

 private:
  /// One live cut: the buffer, the end adapters that stand in for it in
  /// the two shards' sub-pipelines, and the consumer-shard metrics
  /// collector.
  struct CutLink {
    Buffer* buffer = nullptr;
    std::size_t up_sec = 0;
    std::size_t down_sec = 0;
    std::unique_ptr<PassiveSink> in;     ///< producer shard's end
    std::unique_ptr<PassiveSource> out;  ///< consumer shard's end
    int collector_shard = -1;
    obs::MetricsRegistry::CollectorId collector = 0;
  };

  /// A control event that arrived while its destination shard was
  /// mid-migration. target == nullptr: broadcast for `shard`; otherwise a
  /// targeted event whose destination is re-resolved at replay.
  struct PendingEvent {
    int shard = -1;
    Component* target = nullptr;
    Event event;
  };

  void forward_event(int from_shard, const Event& e);
  void teardown() noexcept;
  void run_on_shard(int shard, const std::function<void()>& fn);

  /// Component -> hosting shard for the CURRENT assignment: section members
  /// from assign_, boundary components inherit a mapped neighbour's shard
  /// (all neighbours agree, else the boundary were a cut).
  [[nodiscard]] std::map<const Component*, int> compute_shard_of_comp() const;
  /// Live cut buffer -> index into cuts_.
  [[nodiscard]] std::map<const Component*, std::size_t> live_cut_of() const;
  /// A link (and end adapters) for the buffer of `cut`; binds nothing.
  [[nodiscard]] std::unique_ptr<CutLink> make_cut(
      const Partition::Cut& cut) const;
  /// Binds both ends of a cut to their shards' runtimes and places the
  /// ring on the consumer shard's node.
  void bind_cut(CutLink& link);
  /// Typespec the full plan propagated onto the buffer's out-edge.
  [[nodiscard]] Typespec cut_spec(const Component& buffer) const;
  /// (Re)builds sub_pipes_[s] for every shard in `shards` from the current
  /// assignment and live cuts.
  void build_sub_pipes(const std::vector<int>& shards);
  /// Realizes sub_pipes_[s] on its shard (skips empty ones) and installs the
  /// pointer under ev_mu_.
  void realize_shard(int shard);
  void add_cut_collector(CutLink& link);
  void remove_cut_collector(CutLink& link) noexcept;
  [[nodiscard]] bool shard_finished(int shard);
  void record_started(const Event& e);
  /// Grows reals_/sub_pipes_ to group_->size(). Requires op_mu_ held
  /// (takes ev_mu_ internally for the reals_ resize).
  void adopt_new_shards_locked();

  ShardGroup* group_;
  const Pipeline* pipe_;
  Plan plan_;
  Partition part_;
  std::vector<int> assign_;  ///< current section -> shard (migrations mutate)
  std::map<const Component*, std::size_t> section_of_;
  std::vector<std::unique_ptr<Pipeline>> sub_pipes_;  // per shard
  std::vector<std::unique_ptr<Realization>> reals_;   // per shard
  std::vector<std::unique_ptr<CutLink>> cuts_;

  /// Guards reals_ pointers, the cuts_ vector, assign_, pending_,
  /// started_, migrating_, listener_. Never held across run_on (a shard
  /// thread may need it to deliver an event).
  mutable std::mutex ev_mu_;
  /// Serializes structural operations (migration, snapshots, teardown). May
  /// be held across run_on: shard threads never block on it (samplers use
  /// try_lock).
  mutable std::mutex op_mu_;

  bool migrating_ = false;          ///< under ev_mu_
  bool started_ = false;            ///< last lifecycle broadcast was START
  std::vector<PendingEvent> pending_;
  std::atomic<std::uint64_t> migrations_{0};
  std::function<void(const Event&)> listener_;
};

}  // namespace infopipe::shard
