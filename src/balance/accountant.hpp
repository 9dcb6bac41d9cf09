// LoadAccountant: decaying per-shard and per-cut load estimates (ip_balance).
//
// The rebalancer needs two signals: how busy each shard's kernel thread is,
// and how congested each cut buffer is. Both are sampled without
// perturbing the flow:
//
//   * shard busy fraction — differences of rt::Runtime::service_busy_ns /
//     service_idle_ns between samples (the run_service loop splits its wall
//     time into running vs parked in its epoll set, timer waits included),
//     folded into an EWMA so a momentary burst does not trigger a
//     migration. An interval in which the runtime never parked reads as
//     busy, one it spent wholly parked as idle;
//   * channel load — a cut buffer's stat atomics (fill, producer and
//     consumer stall counters), readable from any thread by design; stall
//     counters are differenced into rates per second.
//
// In manual/deterministic mode there are no kernel threads and the busy
// split reads zero; tests inject shard loads through note_busy_sample()
// instead, which feeds the same EWMA. Each sample reads the current cut
// set, so collapsed cuts drop out and fresh cuts appear; a buffer keeps its
// rate window across cuts because it is the same object throughout.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "shard/sharded_realization.hpp"

namespace infopipe::balance {

struct ChannelLoad {
  std::string name;
  int from_shard = -1;
  int to_shard = -1;
  double fill_fraction = 0.0;
  double producer_stall_rate = 0.0;  ///< blocks/s, smoothed
  double consumer_stall_rate = 0.0;
};

struct LoadSnapshot {
  std::uint64_t when_ns = 0;  ///< steady-clock sample time
  std::vector<double> busy;   ///< per shard, [0,1]
  std::vector<ChannelLoad> channels;
};

struct AccountantOptions {
  double alpha = 0.3;  ///< EWMA weight of the newest sample
};

class LoadAccountant {
 public:
  using Options = AccountantOptions;

  explicit LoadAccountant(shard::ShardedRealization& sr,
                          Options opts = Options());

  /// Busy-share-only accounting over a bare ShardGroup: no realization, so
  /// no channel readings — snapshot().channels stays empty. This is the
  /// form the session acceptor uses: admission decisions need per-shard
  /// busy fractions, and the session layer's engines are plain per-shard
  /// Realizations with no cross-shard cuts to watch.
  explicit LoadAccountant(shard::ShardGroup& group, Options opts = Options());

  LoadAccountant(const LoadAccountant&) = delete;
  LoadAccountant& operator=(const LoadAccountant&) = delete;

  /// Takes one sample: shard busy fractions (only while the group has
  /// kernel threads — otherwise the estimates move only via
  /// note_busy_sample) and channel readings. Thread-safe; call from the
  /// rebalancer's thread, never from a shard thread.
  void sample();

  /// Deterministic injection: folds `fraction` into the shard's EWMA
  /// exactly as a measured sample would. Tests and manual-mode drivers use
  /// this where no kernel-thread wall time exists.
  void note_busy_sample(int shard, double fraction);

  [[nodiscard]] LoadSnapshot snapshot() const;

 private:
  struct ShardAcc {
    std::uint64_t busy_ns = 0;
    std::uint64_t idle_ns = 0;
    bool primed = false;
    bool has_estimate = false;
    double ewma = 0.0;
  };
  struct ChanAcc {
    const Buffer* buf = nullptr;
    bool cut = false;  ///< in the cut set at the last sample
    std::uint64_t producer_stalls = 0;
    std::uint64_t consumer_stalls = 0;
    std::uint64_t when_ns = 0;
    double producer_rate = 0.0;
    double consumer_rate = 0.0;
  };

  void ewma_update(ShardAcc& acc, double fraction);
  /// Extends shards_ to the group's current (elastic) size.
  void grow_locked();

  shard::ShardGroup* group_;
  shard::ShardedRealization* sr_;  ///< nullptr in the group-only form
  Options opts_;
  mutable std::mutex mu_;
  std::vector<ShardAcc> shards_;
  std::vector<ChanAcc> chans_;  ///< every buffer ever cut, first cut first
  std::uint64_t last_when_ = 0;
};

}  // namespace infopipe::balance
