// ip_session SessionAcceptor: admission against measured load, and the
// many-connection network front door.
//
// The table stamps any session it is asked for; the acceptor is where
// policy lives. decide() scores every shard by its *effective* load — the
// max of the LoadAccountant's measured busy share (EWMA of the shard
// kernel thread's busy/idle split) and the acceptor's own planned load
// (sum of admitted sessions' rate x cost_per_item, which covers sessions
// admitted so recently the EWMA has not seen them yet) — picks the least
// loaded shard deterministically (ties break to the lowest index), and
// admits only below the requesting class's watermark. Gold's watermark is
// highest: when the fleet fills up, bronze is refused first, which is the
// admission-side half of the class QoS story (the run-time half is the
// governor's rate stealing, table.hpp).
//
// listen() opens the network path: a net::SocketAcceptor hands every
// connecting peer its OWN SocketTransport (own agent thread, own frame
// reader — no serializing on one connection slot), and each peer drives
// kSessionOpen / kSessionClose control frames against this acceptor.
// Sessions die with their peer: sweep_peers() closes whatever a vanished
// peer left open.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "balance/accountant.hpp"
#include "net/socket_transport.hpp"
#include "session/session.hpp"
#include "session/table.hpp"

namespace infopipe::session {

struct AdmissionPolicy {
  /// Planned busy-share per (item/second) of session cadence — the a
  /// priori cost of a session until the measured EWMA catches up.
  double cost_per_item = 1e-5;
  /// Admission ceilings per class (effective load + session cost must stay
  /// below). Indexed by QosClass; gold highest, bronze lowest.
  std::array<double, kNumClasses> watermark{0.95, 0.85, 0.70};
  /// Hard cap on sessions per shard regardless of load; by default what
  /// one shard's engine can hold.
  std::size_t max_per_shard = kSessionSlots;
};

/// Outcome of one admission check. `reason` is human-readable and travels
/// verbatim in the wire error reply on rejection.
struct Decision {
  bool admitted = false;
  int shard = -1;
  double load = 0.0;  ///< effective load of the chosen shard, pre-admission
  std::string reason;
};

class SessionAcceptor {
 public:
  SessionAcceptor(SessionTable& table, balance::LoadAccountant& acct,
                  AdmissionPolicy policy = AdmissionPolicy());
  ~SessionAcceptor();

  SessionAcceptor(const SessionAcceptor&) = delete;
  SessionAcceptor& operator=(const SessionAcceptor&) = delete;

  /// Pure admission check — no side effects, deterministic for a given
  /// accountant snapshot, planned-load state and live shard set. The
  /// candidate shards are re-resolved from the table's group on EVERY call
  /// (elastic topology: shards added after this acceptor was built are
  /// candidates immediately, retired ones never are).
  [[nodiscard]] Decision decide(const SessionParams& p) const;

  struct OpenResult {
    bool ok = false;
    SessionId id = 0;
    int shard = -1;
    std::string reason;  ///< set on rejection
  };

  /// decide() + stamp: admits against the current load picture, opens the
  /// session on the chosen shard, and accounts its planned load. Thread-
  /// safe; rejections only touch the counter.
  OpenResult open(const SessionParams& p);

  /// Closes an admitted session and releases its planned load. Unknown ids
  /// are ignored (a peer may close twice; the table is never double-hit).
  void close(SessionId id);

  /// Sum of admitted sessions' planned load on a shard.
  [[nodiscard]] double planned_load(int shard) const;
  [[nodiscard]] std::uint64_t admitted() const noexcept {
    return admitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

  // ---- network front door ---------------------------------------------------

  /// Binds the many-connection listener on `rt` (the control runtime the
  /// caller drives; NOT a shard runtime). Each accepted peer gets its own
  /// transport whose kSessionOpen/kSessionClose control frames route here.
  void listen(rt::Runtime& rt, rt::IoBridge& io, net::SocketConfig cfg);
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::size_t peers() const;

  /// Closes every session belonging to a peer whose connection died and
  /// drops the peer. Call from the listening runtime's driving thread
  /// (transports are destroyed here).
  void sweep_peers();

 private:
  struct Planned {
    int shard = -1;
    double load = 0.0;
  };
  struct Peer {
    std::unique_ptr<net::SocketTransport> transport;
    std::vector<SessionId> sessions;
  };

  void handle_control(net::SocketTransport* t, std::uint64_t request_id,
                      net::wire::ControlOp op, const std::string& text);

  SessionTable* table_;
  balance::LoadAccountant* acct_;
  AdmissionPolicy policy_;

  mutable std::mutex mu_;  ///< planned-load bookkeeping
  std::unordered_map<SessionId, Planned> planned_;
  std::vector<double> planned_load_;     ///< per shard
  std::vector<std::size_t> count_;       ///< per shard
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};

  std::unique_ptr<net::SocketAcceptor> listener_;
  mutable std::mutex peers_mu_;
  std::map<net::SocketTransport*, Peer> peers_;
};

}  // namespace infopipe::session
