// ShardedRealization: one pipeline, many cores (ip_shard).
//
// Takes the application's pipeline exactly as a single-runtime Realization
// would, partitions its plan across a ShardGroup (whole sections only —
// partition() cuts exclusively at passive buffer boundaries), replaces each
// cut buffer with a ShardChannel's sink/source endpoint pair, and realizes
// one ordinary Realization per non-empty shard on that shard's runtime. All
// single-runtime machinery — planning, coroutine glue, section locks,
// control dispatch while blocked — runs unchanged inside every shard; the
// only new mechanics are the channels between them.
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
// item lands in a Buffer or ShardChannel, which both survive realization
// teardown), re-partitions the cut set for the new assignment — creating,
// re-binding or collapsing channels as sections separate or co-land — and
// re-realizes the affected shards. Control events posted at the affected
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
#include "shard/channel.hpp"
#include "shard/shard_group.hpp"

namespace infopipe::shard {

/// What one completed migration did, for logs/metrics/tests.
struct MigrationOutcome {
  std::size_t section = 0;
  int from = -1;
  int to = -1;
  std::uint64_t items_moved = 0;   ///< items carried across storage kinds
  std::size_t cuts_collapsed = 0;  ///< channels folded back into buffers
  std::size_t cuts_created = 0;    ///< buffers newly split into channels
  std::size_t cuts_rebound = 0;    ///< persisting channels with a moved end
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

  /// Cuts ever created (live + retired); retired entries keep their channel
  /// object alive so stale pointers held by samplers stay valid.
  [[nodiscard]] std::size_t channel_count() const noexcept {
    return cuts_.size();
  }
  [[nodiscard]] const ShardChannel& channel(std::size_t i) const {
    return *cuts_.at(i)->chan;
  }
  /// Channels currently carrying the flow (excludes retired ones).
  [[nodiscard]] std::vector<ShardChannel*> live_channels();

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

  /// The cross-shard channel that replaced the cut buffer `name` (channels
  /// keep the buffer's name), or nullptr. Prefers a live channel; falls
  /// back to a retired one so stats of a collapsed cut remain readable.
  [[nodiscard]] ShardChannel* find_channel(std::string_view name);

  /// Like find_channel(), but only a channel currently carrying the flow:
  /// nullptr when no live cut has that name (never a retired channel).
  /// Sensors re-resolve through this on every read so they keep tracking
  /// the cut as migrations collapse and re-create it.
  [[nodiscard]] ShardChannel* find_live_channel(std::string_view name);

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
  /// steering a component the rebalancer is moving around. Queued and
  /// replayed like post_event() while the hosting shard is mid-migration;
  /// dropped (like rt sends to dead threads) if no shard hosts `c`.
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
    /// Tears down the affected realizations, re-cuts, moves storage, and
    /// re-realizes. No data flows on the affected shards until resume().
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
  /// slots (and any final realization state) like retired channels do.
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

  /// Merged snapshot: drivers and buffers from every shard plus one
  /// ChannelStats row per live cross-shard channel; `when` is the latest
  /// shard clock. Each shard's counters are read on that shard's kernel
  /// thread.
  [[nodiscard]] StatsSnapshot stats_snapshot() override;

  /// Every shard's registry rows prefixed `shard<i>.` (the channel rows
  /// appear under their consumer shard as `shard<i>.chan.<name>.*`).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() override;

  /// Samples a component's state on whichever shard currently hosts it,
  /// without blocking behind a migration: returns nullopt when a structural
  /// operation is in flight (callers keep their previous value) or when no
  /// shard hosts the component. This — not call_on on a cached shard — is
  /// how the feedback endpoints read fill/stall counters, which also makes
  /// opposite-direction loops across one shard pair deadlock-free.
  std::optional<double> try_sample_component(
      std::string_view name, const std::function<double(Component&)>& fn);

  /// Partition summary plus each shard's plan description.
  [[nodiscard]] std::string describe() const override;

 private:
  /// One cut: the buffer it replaced, its channel and endpoints, and the
  /// shard-side metrics collector. Retired entries (cut collapsed by a
  /// migration) stay allocated so pointers handed out earlier never dangle.
  struct CutLink {
    Component* buffer = nullptr;
    std::size_t up_sec = 0;
    std::size_t down_sec = 0;
    std::unique_ptr<ShardChannel> chan;
    std::unique_ptr<ChannelSink> sink;
    std::unique_ptr<ChannelSource> source;
    int collector_shard = -1;
    obs::MetricsRegistry::CollectorId collector = 0;
    bool retired = false;
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

  /// Guards reals_ pointers, cuts_ vector shape, assign_, pending_,
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
