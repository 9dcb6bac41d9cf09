#include "session/acceptor.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace infopipe::session {

namespace {

constexpr char kSep = '\x1F';

std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(kSep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

SessionAcceptor::SessionAcceptor(SessionTable& table,
                                 balance::LoadAccountant& acct,
                                 AdmissionPolicy policy)
    : table_(&table), acct_(&acct), policy_(policy) {
  planned_load_.resize(static_cast<std::size_t>(table.shards()), 0.0);
  count_.resize(static_cast<std::size_t>(table.shards()), 0);
}

SessionAcceptor::~SessionAcceptor() = default;

Decision SessionAcceptor::decide(const SessionParams& p) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const balance::LoadSnapshot snap = acct_->snapshot();

  // The candidate set is the LIVE shard set, re-resolved on every decision
  // — never the count at construction. An elastic group may have grown
  // (new shards score 0 planned load until the bookkeeping catches up in
  // open()) or retired shards this acceptor once admitted onto.
  Decision d;
  double best = std::numeric_limits<double>::infinity();
  for (const int shard : table_->live_shards()) {
    const auto s = static_cast<std::size_t>(shard);
    const double measured = s < snap.busy.size() ? snap.busy[s] : 0.0;
    // Effective load: whichever of the measured EWMA and the planned sum
    // is higher — planned covers the admissions the EWMA has not seen
    // yet, measured covers cost the plan under-estimated.
    const double planned = s < planned_load_.size() ? planned_load_[s] : 0.0;
    const double eff = std::max(measured, planned);
    if (eff < best) {  // strict: ties break to the lowest shard index
      best = eff;
      d.shard = shard;
    }
  }
  if (d.shard < 0) {
    d.reason = "no shards";
    return d;
  }
  d.load = best;

  const auto cls = static_cast<std::size_t>(p.qos);
  const double cost = std::max(p.rate_hz, 0.0) * policy_.cost_per_item;
  const double wm = policy_.watermark[cls];
  const std::size_t on_shard =
      static_cast<std::size_t>(d.shard) < count_.size()
          ? count_[static_cast<std::size_t>(d.shard)]
          : 0;
  if (on_shard >= policy_.max_per_shard) {
    d.reason = "shard " + std::to_string(d.shard) + " at session cap (" +
               std::to_string(policy_.max_per_shard) + ")";
    return d;
  }
  if (best + cost > wm) {
    d.reason = to_string(p.qos) + " watermark " + std::to_string(wm) +
               " exceeded: shard " + std::to_string(d.shard) + " at " +
               std::to_string(best) + " + session cost " +
               std::to_string(cost);
    return d;
  }
  d.admitted = true;
  return d;
}

SessionAcceptor::OpenResult SessionAcceptor::open(const SessionParams& p) {
  const Decision d = decide(p);
  OpenResult r;
  r.shard = d.shard;
  if (!d.admitted) {
    r.reason = d.reason;
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  try {
    r.id = table_->open_on(d.shard, p);
  } catch (const std::length_error& e) {
    // The shard's engine has no slot left to issue: refused like any other
    // admission, the reason travelling in the reply.
    r.reason = e.what();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  r.ok = true;
  const double cost = std::max(p.rate_hz, 0.0) * policy_.cost_per_item;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    const auto s = static_cast<std::size_t>(d.shard);
    if (s >= planned_load_.size()) {  // first admission onto a grown shard
      planned_load_.resize(s + 1, 0.0);
      count_.resize(s + 1, 0);
    }
    planned_.emplace(r.id, Planned{d.shard, cost});
    planned_load_[s] += cost;
    ++count_[s];
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

void SessionAcceptor::close(SessionId id) {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = planned_.find(id);
    if (it == planned_.end()) return;
    const auto s = static_cast<std::size_t>(it->second.shard);
    planned_load_[s] = std::max(0.0, planned_load_[s] - it->second.load);
    if (count_[s] > 0) --count_[s];
    planned_.erase(it);
  }
  table_->close(id);
}

double SessionAcceptor::planned_load(int shard) const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (shard < 0 || static_cast<std::size_t>(shard) >= planned_load_.size()) {
    return 0.0;  // a grown shard nothing was admitted onto yet
  }
  return planned_load_[static_cast<std::size_t>(shard)];
}

// ---- network front door -----------------------------------------------------

void SessionAcceptor::listen(rt::Runtime& rt, rt::IoBridge& io,
                             net::SocketConfig cfg) {
  listener_ = std::make_unique<net::SocketAcceptor>(
      rt, io, cfg, [this](std::unique_ptr<net::SocketTransport> t) {
        net::SocketTransport* tp = t.get();
        tp->set_control_handler(
            [this, tp](std::uint64_t request_id, net::wire::ControlOp op,
                       const std::string& text) {
              handle_control(tp, request_id, op, text);
            });
        const std::lock_guard<std::mutex> lk(peers_mu_);
        peers_.emplace(tp, Peer{std::move(t), {}});
      });
}

std::uint16_t SessionAcceptor::port() const {
  return listener_ ? listener_->local_port() : 0;
}

std::size_t SessionAcceptor::peers() const {
  const std::lock_guard<std::mutex> lk(peers_mu_);
  return peers_.size();
}

void SessionAcceptor::handle_control(net::SocketTransport* t,
                                     std::uint64_t request_id,
                                     net::wire::ControlOp op,
                                     const std::string& text) {
  switch (op) {
    case net::wire::ControlOp::kSessionOpen: {
      const std::vector<std::string> f = split_fields(text);
      SessionParams p;
      if (f.size() != 3 || !parse_qos(f[0], p.qos)) {
        t->send_control_reply(request_id, false,
                              "bad open request: want qos\\x1Frate\\x1Fbytes");
        return;
      }
      try {
        p.rate_hz = std::stod(f[1]);
        p.payload_bytes = static_cast<std::size_t>(std::stoul(f[2]));
      } catch (const std::exception&) {
        t->send_control_reply(request_id, false, "bad open request: numbers");
        return;
      }
      const OpenResult r = open(p);
      if (!r.ok) {
        t->send_control_reply(request_id, false, r.reason);
        return;
      }
      {
        const std::lock_guard<std::mutex> lk(peers_mu_);
        auto it = peers_.find(t);
        if (it != peers_.end()) it->second.sessions.push_back(r.id);
      }
      t->send_control_reply(request_id, true,
                            std::to_string(r.id) + std::string(1, kSep) +
                                std::to_string(r.shard));
      return;
    }
    case net::wire::ControlOp::kSessionClose: {
      SessionId id = 0;
      try {
        id = std::stoull(text);
      } catch (const std::exception&) {
        t->send_control_reply(request_id, false, "bad close request");
        return;
      }
      {
        const std::lock_guard<std::mutex> lk(peers_mu_);
        auto it = peers_.find(t);
        if (it != peers_.end()) {
          auto& v = it->second.sessions;
          v.erase(std::remove(v.begin(), v.end(), id), v.end());
        }
      }
      close(id);
      t->send_control_reply(request_id, true, "");
      return;
    }
    default:
      t->send_control_reply(request_id, false,
                            "unsupported op on a session link");
      return;
  }
}

void SessionAcceptor::sweep_peers() {
  std::vector<Peer> dead;
  {
    const std::lock_guard<std::mutex> lk(peers_mu_);
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (it->second.transport->peer_closed()) {
        dead.push_back(std::move(it->second));
        it = peers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Peer& p : dead) {
    for (SessionId id : p.sessions) close(id);
    // The transport (and its agent thread) dies here, on the caller's
    // runtime-driving thread.
    p.transport.reset();
  }
}

}  // namespace infopipe::session
