// HBChecker (ip_replay): drd-style vector-clock happens-before checking
// over the middleware's OWN synchronization edges.
//
// The middleware's concurrency story is that cross-shard data only moves
// through two mechanisms: cut buffers' rings (publish on the producer
// shard happens-before consume on the consumer shard, per ring position)
// and the Pool foreign-return stash (a foreign release happens-before the
// owner's drain/adoption). If every cross-thread access of shared state is
// ordered by a chain of those edges, the execution is race-free by
// construction — that is what "thread transparency" buys.
//
// The checker verifies it the way valgrind's exp-drd does (SNIPPETS.md
// snippets 1–2): each kernel thread carries a vector clock; a channel
// publish stores the producer's clock with the ring positions; the
// matching consume joins it into the consumer's clock; stash edges do the
// same through a per-pool clock. A declared shared access
// (replay::note_shared_access) is then checked against the last access
// from every OTHER thread: if that prior access is not <= the current
// thread's clock — i.e. not ordered by any recorded edge — and at least
// one of the two is a write, it is a violation.
//
// The checker is a TapSink like the recorder: install it around a live
// run, or call the on_* methods directly to check a hand-built schedule.
// Everything is mutex-protected — this is a verification tool, not a hot
// path.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replay/hooks.hpp"

namespace infopipe::replay {

class HBChecker : public TapSink {
 public:
  struct Violation {
    const void* obj;     ///< the shared object
    int thread_a;        ///< prior accessor (checker-local thread index)
    int thread_b;        ///< current accessor
    bool write_a;        ///< was the prior access a write?
    bool write_b;        ///< is the current access a write?
    std::string detail;  ///< human-readable clock comparison
  };

  /// Installs as the process tap sink (no config gate — the checker is a
  /// test harness, not a recorder). Same quiescence discipline as the
  /// recorder: install/uninstall only while no shard thread is in a tap.
  void install();
  void uninstall();
  ~HBChecker() override;

  [[nodiscard]] std::vector<Violation> violations() const;
  [[nodiscard]] std::uint64_t edges_observed() const;
  [[nodiscard]] std::uint64_t accesses_checked() const;
  /// One-line report ("3 threads, 1204 edges, 87 accesses, 0 violations").
  [[nodiscard]] std::string report() const;

  // -- TapSink ---------------------------------------------------------------
  // Dispatch/timer/migration frames are schedule data, not HB edges; the
  // checker ignores them. (Migration's quiesce barrier is itself built on
  // run_on round trips, whose channel messages the dispatch path orders.)
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
  /// Scale events are schedule data, not HB edges (thread clocks are
  /// assigned lazily per kernel thread, so a new shard needs no setup).
  void on_scale(const void* /*rtm*/, const void* /*pool*/, int /*shard*/,
                bool /*added*/, int /*live_after*/) override {}
  /// Hops decide nothing and order nothing.
  void on_hop(const void* /*rtm*/, Hop /*hop*/, const char* /*site*/,
              std::int64_t /*a*/, std::int64_t /*b*/) override {}

 private:
  using VC = std::vector<std::uint64_t>;

  /// Is a <= b pointwise (a happened-before-or-equal b)?
  [[nodiscard]] static bool leq(const VC& a, const VC& b);
  static void join(VC& into, const VC& from);
  [[nodiscard]] static std::string render(const VC& v);

  /// Index of the calling kernel thread (lazily assigned). Holds mu_.
  int self_locked();
  void tick(int t);

  /// A publish edge waiting for its consume: ring positions
  /// [first_seq, end_seq) carry the producer clock `vc`.
  struct PendingEdge {
    std::uint64_t first_seq;
    std::uint64_t end_seq;
    VC vc;
  };

  struct Access {
    VC vc;
    int thread = -1;
    bool write = false;
    bool valid = false;
  };

  mutable std::mutex mu_;
  std::map<std::thread::id, int> thread_index_;
  std::vector<VC> clocks_;                        ///< one per thread
  std::map<const void*, std::deque<PendingEdge>> chan_pending_;
  std::map<const void*, VC> stash_clock_;         ///< per-pool stash clock
  std::map<const void*, std::vector<Access>> last_access_;  ///< per object,
                                                            ///< per thread
  std::vector<Violation> violations_;
  std::uint64_t edges_ = 0;
  std::uint64_t accesses_ = 0;
  bool installed_ = false;
};

}  // namespace infopipe::replay
