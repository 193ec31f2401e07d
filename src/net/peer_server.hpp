// A peer as a real TCP server.
//
// Serves its verbatim message store over the wire protocol, along the
// Figure 4(b) timeline: (1) mutual challenge-response authentication,
// (2/3) the user's file request, (4) a paced stream of stored coded
// messages, (5) stop.  Peers still never touch coefficients or do coding
// work — they read frames out of their store and pace them to the
// configured upload rate.
//
// The serving core is event-driven: N net::EventLoop reactors
// (Config::num_loops, SO_REUSEPORT-sharded listeners) own every session
// fd; each session is a non-blocking state machine (hello -> response ->
// request -> streaming -> done) driven by readiness callbacks, and the
// Eq. (2) re-allocation runs as a periodic entry on loop 0's timer queue.
// Serving threads are O(loops), not O(sessions), so max_sessions can be
// raised into the hundreds without a thread per connection.
//
// The pacing tick runs the paper's Equation (2) contribution-proportional
// rule (alloc::ProportionalContributionPolicy), keyed by authenticated
// user id and fed by the bytes each user was actually served — so the
// live server reproduces the allocation dynamics the simulator models.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/policies.hpp"
#include "crypto/auth.hpp"
#include "net/discovery.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"

namespace fairshare::net {

/// The serving core.  There is only the epoll reactor; the enum and
/// Config::backend stay because the end-to-end benchmark (perfbench/)
/// still sets the field.
enum class NetBackend { epoll };

class PeerServer {
 public:
  struct Config {
    std::uint16_t port = 0;   ///< 0 = pick a free port
    double rate_kbps = 0.0;   ///< upload capacity mu_i; 0 = unpaced
    bool require_auth = true;
    std::uint64_t peer_id = 0;
    std::uint64_t rng_seed = 1;  ///< nonce/session-key stream seed
    NetBackend backend = NetBackend::epoll;  ///< ignored: one core
    /// Event loops (and SO_REUSEPORT listener shards).
    std::size_t num_loops = 1;
    /// Concurrent sessions, served from O(num_loops) threads; extras are
    /// dropped at accept.
    std::size_t max_sessions = 1024;
    std::size_t max_users = 64;     ///< distinct users the ledger can track
    int pacing_quantum_ms = 20;     ///< scheduler re-allocation period
    int handshake_timeout_ms = 5000;  ///< auth + request must finish by then
    /// Accept-path hook (net::TransportWrapper): every accepted
    /// connection's Transport passes through it before the session runs.
    TransportWrapper transport_wrapper;
    /// Registry this server reports into (sessions, per-user bytes, pacing
    /// latency, spans); null = the process-wide obs global registry.
    /// Series are labelled peer=<peer_id>, so several servers can share
    /// one registry (give them distinct peer_ids, as a real swarm would).
    obs::MetricsRegistry* registry = nullptr;
    /// Discovery/federation hook (normally a disco::DiscoveryNode).  When
    /// set, start() announces every stored file id to it, and each pacing
    /// tick publishes this server's per-user contribution totals and folds
    /// gossiped remote contributions into the Eq. (2) ledger — so a user
    /// who contributed through ANOTHER server of the federation earns
    /// share here too.  Remote totals ride the pacing tick, so federation
    /// requires rate_kbps > 0 (an unpaced server never ticks).
    std::shared_ptr<DiscoveryHook> discovery;
    /// Address announced to discovery as this server's serving endpoint
    /// (the listen socket binds loopback; a real deployment would put the
    /// routable name here).
    std::string advertise_host = "127.0.0.1";
    /// Non-empty: write the registry as JSON here (atomic tmp+rename) when
    /// the process receives SIGUSR1 and again when the server stops, so a
    /// live peer and a finished bench emit the same artifact.  Inspect
    /// with `fairshare_cli stats <path> [--pid <pid>]`.
    std::string stats_json_path;
  };

  /// Last-allocation view of one user, for tests and dashboards.
  struct AllocationShare {
    std::uint64_t user_id = 0;
    double rate_kbps = 0.0;         ///< share granted at the last quantum
    std::uint64_t bytes_sent = 0;   ///< cumulative payload bytes served
    std::size_t active_sessions = 0;
  };

  /// The server takes its store and (when authenticating) its RSA identity
  /// by value; register authorized users before start().
  PeerServer(Config config, p2p::MessageStore store,
             std::optional<crypto::RsaKeyPair> identity = std::nullopt);
  ~PeerServer();

  PeerServer(const PeerServer&) = delete;
  PeerServer& operator=(const PeerServer&) = delete;

  /// Authorize a user's public key (Figure 4(b) assumes peers know the
  /// keys of the users they serve).  Call before start().
  void register_user(std::uint64_t user_id, crypto::RsaPublicKey key);

  /// Credit `amount` to a user's contribution ledger S (Equation (2)'s
  /// cumulative term) — e.g. replaying contributions recorded elsewhere.
  void seed_contribution(std::uint64_t user_id, double amount);

  /// Bind the listener shards and start the event loops (the pacing
  /// scheduler rides loop 0).  False if the port cannot be bound or the
  /// loops cannot come up — always, on a platform without epoll.
  bool start();
  /// Stop accepting, close every session, join the loops.
  void stop();

  std::uint16_t port() const { return port_; }
  /// Threads dedicated to serving: num_loops while running — the scaling
  /// claim "threads are O(loops), not O(sessions)" made measurable.
  std::size_t serving_threads() const { return serving_threads_; }
  // These four read the registry series labelled peer=<peer_id>, so
  // servers that share a registry need distinct peer_ids.
  std::size_t sessions_completed() const {
    return m_sessions_completed_->value();
  }
  std::size_t auth_rejections() const { return m_auth_rejections_->value(); }
  std::size_t messages_sent() const { return m_messages_sent_->value(); }
  /// Connections dropped because max_sessions were already in flight.
  std::size_t sessions_rejected() const {
    return m_sessions_rejected_->value();
  }
  /// Sessions currently being handled (accepted, not yet finished).
  std::size_t active_sessions() const { return active_sessions_; }
  /// High-water mark of active_sessions() since start().
  std::size_t peak_sessions() const { return peak_sessions_; }
  /// Cumulative payload bytes streamed to one user (0 if never seen).
  std::uint64_t user_bytes_sent(std::uint64_t user_id) const;
  /// Per-user allocation state: a coherent point-in-time copy taken under
  /// ONE acquisition of the pacing lock, so rates, byte counts, and
  /// session counts in the result all belong to the same instant (bytes
  /// are monotone across successive snapshots; sessions sum to at most the
  /// streaming sessions then active).  O(users + sessions).  The rates are
  /// the fairshare_server_user_rate_kbps gauges the pacing tick sets.
  std::vector<AllocationShare> allocation_snapshot() const;
  /// The registry this server reports into (Config::registry or global).
  obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  struct SessionState {
    std::uint64_t user_id = 0;
    std::size_t user_slot = 0;
    double budget_bytes = 0.0;   ///< token bucket filled by the scheduler
    double quantum_bytes = 0.0;  ///< sent since the last tick (feedback)
    bool streaming = false;      ///< counts as "requesting" in Eq. (2)
  };

  /// The reactor's world (loops, listeners, sessions); defined in
  /// peer_server_epoll.cpp.  Nested so it reaches the pacing state and
  /// instruments directly.
  struct ReactorState;

  /// Largest frame accepted from a client (handshake frames and requests
  /// are small; coded messages flow the other way).
  static constexpr std::size_t kMaxClientFrame = 1 << 16;

  /// One Eq. (2) re-allocation: feedback -> allocate -> refill budgets.
  /// Requires pacing_mutex_; run by loop 0's timer queue.
  void pacing_tick_locked();
  /// Slot index for a user id, assigning one if unseen; nullopt when all
  /// Config::max_users slots are taken.  Requires pacing_mutex_.
  std::optional<std::size_t> user_slot_locked(std::uint64_t user_id);
  // Reactor bring-up/teardown (peer_server_epoll.cpp).  Bring-up fails
  // where EventLoop has no epoll.
  bool reactor_start();
  void reactor_stop();

  Config config_;
  p2p::MessageStore store_;
  std::optional<crypto::RsaKeyPair> identity_;
  std::map<std::uint64_t, crypto::RsaPublicKey> users_;
  std::uint16_t port_ = 0;
  // shared_ptr (not unique_ptr) so the deleter is captured where the type
  // is complete (peer_server_epoll.cpp) and every other TU can destroy it.
  std::shared_ptr<ReactorState> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> serving_threads_{0};
  std::atomic<std::uint64_t> session_counter_{0};  // the one salt source

  // Pacing state: one mutex guards the session registry, every
  // SessionState, the per-user tables below, and the Eq. (2) policy (its
  // ledger is fed by the pacing tick and by seed_contribution).
  mutable std::mutex pacing_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionState>> sessions_;
  std::map<std::uint64_t, std::size_t> user_slots_;
  std::vector<std::uint64_t> slot_users_;
  std::vector<std::uint64_t> user_bytes_;
  std::vector<double> declared_;  // zeros; live peers declare nothing
  alloc::ProportionalContributionPolicy policy_;
  // pacing_tick_locked scratch (guarded by pacing_mutex_; sized max_users).
  std::vector<std::uint8_t> pt_requesting_;
  std::vector<double> pt_received_;
  std::vector<double> pt_shares_;
  std::vector<std::size_t> pt_sessions_;
  std::uint64_t pt_slot_ = 0;
  /// Gossiped remote contribution already folded into the policy ledger,
  /// by slot (pacing_mutex_): each tick applies only the delta against
  /// the hook's current swarm total, keeping the fold idempotent.
  std::vector<double> applied_remote_;

  // Admission state stays server-owned: max_sessions is enforced against
  // this server's own sessions, never a series another server with the
  // same peer_id could share.  The gauges below export it.
  std::atomic<std::size_t> active_sessions_{0};
  std::atomic<std::size_t> peak_sessions_{0};

  // Registry instruments, resolved once in the constructor / at slot
  // assignment, never per event.  The counters and the rate gauges are
  // the only store of what they count: the accessors and
  // allocation_snapshot() read them.  user_bytes_ above stays a second
  // copy because the Eq. (2) federation publish needs this server's own
  // bytes.
  obs::MetricsRegistry* registry_;  // Config::registry or the global
  obs::Counter* m_sessions_completed_;
  obs::Counter* m_sessions_rejected_;
  obs::Counter* m_auth_rejections_;
  obs::Counter* m_messages_sent_;
  obs::Gauge* m_active_sessions_;
  obs::Gauge* m_peak_sessions_;
  obs::Histogram* m_quantum_ns_;
  std::vector<obs::Counter*> m_user_bytes_;    // by slot; pacing_mutex_
  std::vector<obs::Gauge*> m_user_rate_;       // by slot; pacing_mutex_
  std::uint64_t dump_generation_seen_ = 0;     // loop 0 only
};

}  // namespace fairshare::net
