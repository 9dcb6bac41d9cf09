#include "balance/accountant.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

namespace infopipe::balance {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

LoadAccountant::LoadAccountant(shard::ShardedRealization& sr, Options opts)
    : group_(&sr.group()), sr_(&sr), opts_(opts) {
  shards_.resize(static_cast<std::size_t>(sr.group().size()));
}

LoadAccountant::LoadAccountant(shard::ShardGroup& group, Options opts)
    : group_(&group), sr_(nullptr), opts_(opts) {
  shards_.resize(static_cast<std::size_t>(group.size()));
}

void LoadAccountant::ewma_update(ShardAcc& acc, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  acc.ewma = acc.has_estimate
                 ? opts_.alpha * fraction + (1.0 - opts_.alpha) * acc.ewma
                 : fraction;
  acc.has_estimate = true;
}

void LoadAccountant::grow_locked() {
  // An elastic group may have added shards since construction (or the last
  // sample). New entries start with no estimate; retired shards keep their
  // slot — their EWMA freezes at the last live value, and consumers filter
  // by the live shard set.
  const auto n = static_cast<std::size_t>(group_->size());
  if (n > shards_.size()) shards_.resize(n);
}

void LoadAccountant::sample() {
  const std::lock_guard<std::mutex> lk(mu_);
  grow_locked();
  const std::uint64_t now = steady_now_ns();

  // Shard busy fractions only exist when shards have kernel threads; the
  // first sample after launch just primes the counters.
  if (group_->running()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // A retired shard's EWMA freezes at its last live value.
      if (!group_->is_live(static_cast<int>(s))) continue;
      rt::Runtime& rtm = group_->runtime(static_cast<int>(s));
      const std::uint64_t busy = rtm.service_busy_ns();
      std::uint64_t idle = rtm.service_idle_ns();
      // A park in progress counted its busy time at entry but adds its idle
      // time only at exit: the time parked so far is idle too.
      if (const std::optional<rt::Time> since = rtm.parked_since()) {
        const rt::Time t = rtm.now();
        if (t > *since) idle += static_cast<std::uint64_t>(t - *since);
      }
      ShardAcc& acc = shards_[s];
      if (acc.primed) {
        // A park that ends between the reads above may make the idle sum
        // run ahead by a moment; the next interval then reads no idle time
        // instead of a negative one.
        const std::uint64_t dbusy = busy - acc.busy_ns;
        const std::uint64_t didle = idle > acc.idle_ns ? idle - acc.idle_ns : 0;
        if (dbusy + didle > 0) {
          ewma_update(acc, static_cast<double>(dbusy) /
                               static_cast<double>(dbusy + didle));
        } else {
          // The counters move only at park entry and exit: a runtime that
          // never parked in the interval ran throughout, one that stayed
          // parked idled throughout.
          ewma_update(acc, rtm.parked() ? 0.0 : 1.0);
        }
      }
      acc.busy_ns = busy;
      acc.idle_ns = std::max(acc.idle_ns, idle);
      acc.primed = true;
    }
  }

  for (ChanAcc& acc : chans_) acc.cut = false;
  const std::vector<Buffer*> cuts =
      sr_ != nullptr ? sr_->live_channels() : std::vector<Buffer*>{};
  for (const Buffer* b : cuts) {
    auto it = std::find_if(chans_.begin(), chans_.end(),
                           [b](const ChanAcc& a) { return a.buf == b; });
    const bool primed = it != chans_.end();
    if (!primed) it = chans_.insert(chans_.end(), ChanAcc{b});
    ChanAcc& acc = *it;
    acc.cut = true;
    const Buffer::Stats st = b->stats();
    const std::uint64_t ps = st.put_blocks;
    const std::uint64_t cs = st.take_blocks;
    if (primed && now > acc.when_ns) {
      const double dt = static_cast<double>(now - acc.when_ns) / 1e9;
      const double pr = static_cast<double>(ps - acc.producer_stalls) / dt;
      const double cr = static_cast<double>(cs - acc.consumer_stalls) / dt;
      acc.producer_rate = opts_.alpha * pr + (1.0 - opts_.alpha) * acc.producer_rate;
      acc.consumer_rate = opts_.alpha * cr + (1.0 - opts_.alpha) * acc.consumer_rate;
    }
    acc.producer_stalls = ps;
    acc.consumer_stalls = cs;
    acc.when_ns = now;
  }

  last_when_ = now;
}

void LoadAccountant::note_busy_sample(int shard, double fraction) {
  const std::lock_guard<std::mutex> lk(mu_);
  grow_locked();
  if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) return;
  ewma_update(shards_[static_cast<std::size_t>(shard)], fraction);
  last_when_ = std::max(last_when_, steady_now_ns());
}

LoadSnapshot LoadAccountant::snapshot() const {
  const std::lock_guard<std::mutex> lk(mu_);
  LoadSnapshot snap;
  snap.when_ns = last_when_;
  snap.busy.reserve(shards_.size());
  for (const ShardAcc& acc : shards_) snap.busy.push_back(acc.ewma);
  snap.channels.reserve(chans_.size());
  for (const ChanAcc& acc : chans_) {
    if (!acc.cut) continue;
    ChannelLoad cl;
    cl.name = acc.buf->name();
    cl.from_shard = acc.buf->from_shard();
    cl.to_shard = acc.buf->to_shard();
    cl.fill_fraction = static_cast<double>(acc.buf->fill()) /
                       static_cast<double>(acc.buf->capacity());
    cl.producer_stall_rate = acc.producer_rate;
    cl.consumer_stall_rate = acc.consumer_rate;
    snap.channels.push_back(std::move(cl));
  }
  return snap;
}

}  // namespace infopipe::balance
