#include "shard/shard_group.hpp"

#include <chrono>
#include <string>

#include "replay/hooks.hpp"
#include "shard/channel.hpp"  // detail::kMsgRunFn

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace infopipe::shard {

namespace {

/// One run_on() request: the function plus the completion handshake. Shipped
/// as shared_ptr payload so an abandoned request (host thread died) cannot
/// dangle.
struct RunOnReq {
  std::function<void()> fn;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};

/// Best-effort pinning of the calling kernel thread; a shard landing on its
/// own core is the point of the module, but a machine with fewer cores than
/// shards must still work (the channels and doorbells do not care).
void pin_to_core(int shard) {
#ifdef __linux__
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(shard) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)shard;
#endif
}

/// (group, shard) hosted by the calling kernel thread; see on_shard_thread.
thread_local const ShardGroup* g_host_group = nullptr;
thread_local int g_host_shard = -1;

}  // namespace

bool ShardGroup::on_shard_thread(int shard) const noexcept {
  return g_host_group == this && g_host_shard == shard;
}

ShardGroup::ShardGroup(int n_shards, rt::RuntimeOptions options)
    : ShardGroup(n_shards, GroupOptions{std::move(options), {}, false}) {}

ShardGroup::ShardGroup(int n_shards, GroupOptions options)
    : manual_(options.manual),
      topo_(options.topology ? std::move(*options.topology)
                             : Topology::detect()),
      clock_factory_(std::move(options.clock_factory)),
      runtime_opts_(options.runtime) {
  if (n_shards < 1) throw rt::RuntimeError("ShardGroup needs >= 1 shard");
  if (n_shards > kMaxShards) {
    throw rt::RuntimeError("ShardGroup: more than kMaxShards shards");
  }
  slots_ = std::make_unique<std::unique_ptr<Shard>[]>(
      static_cast<std::size_t>(kMaxShards));
  for (int i = 0; i < n_shards; ++i) make_shard(i);
  n_shards_.store(n_shards, std::memory_order_release);
  live_.store(n_shards, std::memory_order_release);
}

ShardGroup::Shard& ShardGroup::make_shard(int i) {
  auto s = std::make_unique<Shard>();
  std::unique_ptr<rt::Clock> clock = clock_factory_
                                         ? clock_factory_()
                                         : std::make_unique<rt::RealClock>();
  s->rtm = std::make_unique<rt::Runtime>(std::move(clock), runtime_opts_);
  // Ring the shard's doorbell after every post_external, so work injected
  // into a parked run_service() loop resumes it.
  rt::Doorbell* bell = &s->bell;
  s->rtm->set_external_notifier([bell] { bell->ring(); });
  // The service thread: executes run_on() payloads on this shard.
  s->service_tid = s->rtm->spawn(
      "shard.service", rt::kPriorityControl,
      [](rt::Runtime&, rt::Message m) {
        if (m.type == detail::kMsgRunFn) {
          if (auto* p = m.get<std::shared_ptr<RunOnReq>>()) {
            const std::shared_ptr<RunOnReq> req = *p;
            try {
              req->fn();
            } catch (...) {
              req->error = std::current_exception();
            }
            {
              const std::lock_guard<std::mutex> lk(req->m);
              req->done = true;
            }
            req->cv.notify_all();
          }
        }
        return rt::CodeResult::kContinue;
      });
  // Slabs this shard's payload pool carves land on the node its kernel
  // thread is pinned to; items created on the shard are then node-local.
  s->rtm->pool().set_numa_node(node_of_shard(i));
  slots_[static_cast<std::size_t>(i)] = std::move(s);
  return *slots_[static_cast<std::size_t>(i)];
}

int ShardGroup::add_shard() {
  const std::lock_guard<std::mutex> lk(topo_mu_);
  const int id = n_shards_.load(std::memory_order_acquire);
  if (id >= kMaxShards) {
    throw rt::RuntimeError("ShardGroup::add_shard: kMaxShards reached");
  }
  Shard& s = make_shard(id);
  if (running_.load(std::memory_order_acquire)) {
    s.dead.store(false, std::memory_order_release);
    s.rtm->clear_halt();
    s.host = std::thread(&ShardGroup::host_loop, this, id);
  }
  // Publish AFTER the slot (and its host thread) is fully set up: a reader
  // that observes the new size finds a working shard behind it.
  n_shards_.store(id + 1, std::memory_order_release);
  const int live = live_.fetch_add(1, std::memory_order_acq_rel) + 1;
  replay::note_scale(s.rtm.get(), &s.rtm->pool(), id, /*added=*/true, live);
  return id;
}

void ShardGroup::retire_shard(int shard) {
  const std::lock_guard<std::mutex> lk(topo_mu_);
  Shard& s = shard_at(shard);
  if (s.retired.load(std::memory_order_acquire)) {
    throw rt::RuntimeError("ShardGroup::retire_shard: shard " +
                           std::to_string(shard) + " already retired");
  }
  if (live_.load(std::memory_order_acquire) <= 1) {
    throw rt::RuntimeError(
        "ShardGroup::retire_shard: cannot retire the last live shard");
  }
  // Mark first: run_on() and admission stop routing here immediately; then
  // drain the host. The runtime object and its counters are retained (the
  // retired-channel rule extended to shards), so indices and any channels
  // still bound to it stay valid.
  s.retired.store(true, std::memory_order_release);
  live_.fetch_sub(1, std::memory_order_acq_rel);
  s.rtm->request_halt();
  s.bell.ring();
  if (s.host.joinable()) s.host.join();
  replay::note_scale(nullptr, nullptr, shard, /*added=*/false,
                     live_.load(std::memory_order_acquire));
}

bool ShardGroup::is_live(int shard) const noexcept {
  if (shard < 0 || shard >= size()) return false;
  return !slots_[static_cast<std::size_t>(shard)]->retired.load(
      std::memory_order_acquire);
}

std::vector<int> ShardGroup::live_shards() const {
  std::vector<int> out;
  const int n = size();
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (is_live(i)) out.push_back(i);
  }
  return out;
}

int ShardGroup::node_of_shard(int shard) const noexcept {
  if (topo_.flat()) return -1;
  // The topology's own probed CPU count models the pinning modulus — for a
  // detected topology it IS hardware_concurrency; for an injected one it
  // keeps tests deterministic regardless of the host machine.
  return topo_.node_of_shard(shard);
}

ShardGroup::~ShardGroup() {
  try {
    stop();
  } catch (...) {
    // A shard error surfacing during destruction has nowhere to go.
  }
}

void ShardGroup::launch() {
  if (manual_) return;
  const std::lock_guard<std::mutex> lk(topo_mu_);
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  const int n = size();
  for (int i = 0; i < n; ++i) {
    Shard& s = *slots_[static_cast<std::size_t>(i)];
    if (s.retired.load(std::memory_order_acquire)) continue;
    s.dead.store(false, std::memory_order_release);
    s.rtm->clear_halt();
    s.host = std::thread(&ShardGroup::host_loop, this, i);
  }
}

void ShardGroup::host_loop(int shard) {
  Shard& s = *slots_[static_cast<std::size_t>(shard)];
  pin_to_core(shard);
  g_host_group = this;
  g_host_shard = shard;
  try {
    s.rtm->run_service(s.bell);
  } catch (...) {
    const std::lock_guard<std::mutex> lk(err_mutex_);
    if (!s.error) s.error = std::current_exception();
  }
  s.dead.store(true, std::memory_order_release);
}

void ShardGroup::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lk(topo_mu_);
  const int n = size();
  for (int i = 0; i < n; ++i) {
    Shard& s = *slots_[static_cast<std::size_t>(i)];
    s.rtm->request_halt();
    s.bell.ring();
  }
  for (int i = 0; i < n; ++i) {
    Shard& s = *slots_[static_cast<std::size_t>(i)];
    if (s.host.joinable()) s.host.join();
  }
  running_.store(false, std::memory_order_release);
  const std::lock_guard<std::mutex> elk(err_mutex_);
  for (int i = 0; i < n; ++i) {
    Shard& s = *slots_[static_cast<std::size_t>(i)];
    if (s.error) {
      const std::exception_ptr e = s.error;
      s.error = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void ShardGroup::step_until(rt::Time t) {
  step_until(t, live_shards());
}

void ShardGroup::step_until(rt::Time t, const std::vector<int>& order) {
  if (!manual_) {
    throw rt::RuntimeError("ShardGroup::step_until needs manual mode");
  }
  const int n = size();
  // The effective visit order: the caller's sequence (validated; retired
  // shards are silently skipped — a recorded order may predate their
  // retirement), then any live shard it left out, so every live runtime
  // still reaches `t` each round.
  std::vector<int> visit;
  visit.reserve(static_cast<std::size_t>(n) + order.size());
  for (const int s : order) {
    if (s < 0 || s >= n) {
      throw rt::RuntimeError("ShardGroup::step_until: shard out of range");
    }
    if (!is_live(s)) continue;
    visit.push_back(s);
  }
  for (int s = 0; s < n; ++s) {
    if (!is_live(s)) continue;
    bool present = false;
    for (const int v : visit) present = present || v == s;
    if (!present) visit.push_back(s);
  }
  // Round-robin until quiescent: a shard's turn may post work into another
  // shard (channel wakeups, forwarded events, run_on payloads), so keep
  // cycling until one full round moves no code function anywhere. Retired
  // shards are skipped; their dispatch counters are frozen, so including
  // them in the sum is harmless.
  std::uint64_t prev = ~std::uint64_t{0};
  for (;;) {
    std::uint64_t total = 0;
    for (const int v : visit) {
      slots_[static_cast<std::size_t>(v)]->rtm->run_until(t);
    }
    for (int s = 0; s < n; ++s) {
      total += slots_[static_cast<std::size_t>(s)]->rtm->stats().dispatches;
    }
    if (total == prev) break;
    prev = total;
  }
}

void ShardGroup::run_on(int shard, std::function<void()> fn) {
  Shard& s = shard_at(shard);
  if (s.retired.load(std::memory_order_acquire)) {
    throw rt::RuntimeError("ShardGroup::run_on: shard " +
                           std::to_string(shard) + " is retired");
  }
  if (manual_) {
    // One kernel thread by design: the caller IS the shard's host.
    fn();
    return;
  }
  if (!running_.load(std::memory_order_acquire)) {
    throw rt::RuntimeError("ShardGroup::run_on: group is not running");
  }
  auto req = std::make_shared<RunOnReq>();
  req->fn = std::move(fn);
  rt::Message m{detail::kMsgRunFn, rt::MsgClass::kControl};
  m.payload = req;
  s.rtm->post_external(s.service_tid, std::move(m));
  std::unique_lock<std::mutex> lk(req->m);
  while (!req->cv.wait_for(lk, std::chrono::milliseconds(50),
                           [&req] { return req->done; })) {
    if (s.dead.load(std::memory_order_acquire)) {
      throw rt::RuntimeError("ShardGroup::run_on: shard " +
                             std::to_string(shard) + " host thread died");
    }
  }
  if (req->error) std::rethrow_exception(req->error);
}

obs::MetricsSnapshot ShardGroup::metrics_snapshot() {
  obs::MetricsSnapshot out;
  const int n = size();
  for (int i = 0; i < n; ++i) {
    Shard& s = *slots_[static_cast<std::size_t>(i)];
    obs::MetricsSnapshot part;
    if (running_.load(std::memory_order_acquire) &&
        !s.retired.load(std::memory_order_acquire) &&
        !s.dead.load(std::memory_order_acquire)) {
      part = call_on(i, [&s] { return s.rtm->metrics().snapshot(); });
    } else {
      // Host thread parked/joined (including retired shards, whose final
      // counters remain readable): direct read is race-free.
      part = s.rtm->metrics().snapshot();
    }
    if (part.when > out.when) out.when = part.when;
    const std::string prefix = "shard" + std::to_string(i) + ".";
    for (obs::MetricValue& mv : part.metrics) {
      mv.name = prefix + mv.name;
      out.metrics.push_back(std::move(mv));
    }
  }
  return out;
}

}  // namespace infopipe::shard
