#include "balance/migration.hpp"

#include <chrono>
#include <exception>

namespace infopipe::balance {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

const char* to_string(MigrationPhase p) noexcept {
  switch (p) {
    case MigrationPhase::kIdle:
      return "idle";
    case MigrationPhase::kQuiesce:
      return "quiesce";
    case MigrationPhase::kTransfer:
      return "transfer";
    case MigrationPhase::kResume:
      return "resume";
    case MigrationPhase::kDone:
      return "done";
    case MigrationPhase::kFailed:
      return "failed";
  }
  return "?";
}

MigrationReport MigrationProtocol::move_section(shard::ShardedRealization& sr,
                                                std::size_t section, int to,
                                                obs::MetricsRegistry* metrics) {
  MigrationReport rep;
  rep.section = section;
  rep.to = to;
  try {
    shard::ShardedRealization::Migration m = sr.begin_migration(section, to);
    rep.from = sr.shard_of_section(section);

    rep.phase = MigrationPhase::kQuiesce;
    const auto t0 = SteadyClock::now();
    m.quiesce(opts_.quiesce_timeout);
    const auto t1 = SteadyClock::now();
    rep.quiesce_ns = ns_between(t0, t1);

    rep.phase = MigrationPhase::kTransfer;
    m.transfer();
    const auto t2 = SteadyClock::now();
    rep.transfer_ns = ns_between(t1, t2);

    rep.phase = MigrationPhase::kResume;
    m.resume();
    rep.resume_ns = ns_between(t2, SteadyClock::now());

    rep.outcome = m.outcome();
    rep.phase = MigrationPhase::kDone;
    // The handle (and with it the structural lock) releases here.
  } catch (const std::exception& e) {
    // The Migration destructor already restarted the affected shards; the
    // report carries the phase that threw.
    rep.error = e.what();
    if (rep.phase == MigrationPhase::kIdle) rep.phase = MigrationPhase::kFailed;
    if (rep.phase != MigrationPhase::kFailed) {
      rep.error = std::string(to_string(rep.phase)) + ": " + rep.error;
      rep.phase = MigrationPhase::kFailed;
    }
  }

  if (metrics != nullptr) {
    if (rep.ok()) {
      metrics->counter("balance.migration.count").inc();
      metrics->histogram("balance.migration.quiesce_ns")
          .record(static_cast<std::int64_t>(rep.quiesce_ns));
      metrics->histogram("balance.migration.transfer_ns")
          .record(static_cast<std::int64_t>(rep.transfer_ns));
      metrics->histogram("balance.migration.total_ns")
          .record(static_cast<std::int64_t>(rep.total_ns()));
    } else {
      metrics->counter("balance.migration.failed").inc();
    }
  }
  return rep;
}

}  // namespace infopipe::balance
