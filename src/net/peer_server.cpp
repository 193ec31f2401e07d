#include "net/peer_server.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/signal_dump.hpp"
#include "obs/trace.hpp"

namespace fairshare::net {

PeerServer::PeerServer(Config config, p2p::MessageStore store,
                       std::optional<crypto::RsaKeyPair> identity)
    : config_(config),
      store_(std::move(store)),
      identity_(std::move(identity)),
      user_bytes_(config_.max_users, 0),
      declared_(config_.max_users, 0.0),
      policy_(config_.max_users),
      pt_requesting_(config_.max_users, 0),
      pt_received_(config_.max_users, 0.0),
      pt_shares_(config_.max_users, 0.0),
      pt_sessions_(config_.max_users, 0),
      applied_remote_(config_.max_users, 0.0),
      registry_(config.registry ? config.registry
                                : &obs::MetricsRegistry::global()),
      m_user_bytes_(config_.max_users, nullptr),
      m_user_rate_(config_.max_users, nullptr) {
  const obs::LabelList peer = {{"peer", std::to_string(config_.peer_id)}};
  m_sessions_completed_ =
      &registry_->counter("fairshare_server_sessions_completed_total", peer);
  m_sessions_rejected_ =
      &registry_->counter("fairshare_server_sessions_rejected_total", peer);
  m_auth_rejections_ =
      &registry_->counter("fairshare_server_auth_rejections_total", peer);
  m_messages_sent_ =
      &registry_->counter("fairshare_server_messages_sent_total", peer);
  m_active_sessions_ =
      &registry_->gauge("fairshare_server_active_sessions", peer);
  m_peak_sessions_ = &registry_->gauge("fairshare_server_peak_sessions", peer);
  m_quantum_ns_ =
      &registry_->histogram("fairshare_server_quantum_ns", peer);
}

PeerServer::~PeerServer() { stop(); }

void PeerServer::register_user(std::uint64_t user_id,
                               crypto::RsaPublicKey key) {
  users_.emplace(user_id, std::move(key));
}

void PeerServer::seed_contribution(std::uint64_t user_id, double amount) {
  std::vector<double> received(config_.max_users, 0.0);
  std::lock_guard<std::mutex> lock(pacing_mutex_);
  const auto slot = user_slot_locked(user_id);
  if (!slot) return;
  received[*slot] = amount;
  alloc::SlotFeedback feedback;
  feedback.slot = 0;
  feedback.received = received;
  policy_.observe(feedback);
}

std::optional<std::size_t> PeerServer::user_slot_locked(
    std::uint64_t user_id) {
  const auto it = user_slots_.find(user_id);
  if (it != user_slots_.end()) return it->second;
  if (slot_users_.size() >= config_.max_users) return std::nullopt;
  const std::size_t slot = slot_users_.size();
  slot_users_.push_back(user_id);
  user_slots_.emplace(user_id, slot);
  const obs::LabelList labels = {{"peer", std::to_string(config_.peer_id)},
                                 {"user", std::to_string(user_id)}};
  m_user_bytes_[slot] =
      &registry_->counter("fairshare_server_user_bytes_total", labels);
  m_user_rate_[slot] =
      &registry_->gauge("fairshare_server_user_rate_kbps", labels);
  return slot;
}

std::uint64_t PeerServer::user_bytes_sent(std::uint64_t user_id) const {
  std::lock_guard<std::mutex> lock(pacing_mutex_);
  const auto it = user_slots_.find(user_id);
  return it == user_slots_.end() ? 0 : user_bytes_[it->second];
}

std::vector<PeerServer::AllocationShare> PeerServer::allocation_snapshot()
    const {
  // One lock acquisition covers every field read, so the returned rows are
  // a coherent instant of the allocation state: a single pass over the
  // session registry (O(users + sessions), not O(users * sessions))
  // instead of a rescan per user row.
  std::lock_guard<std::mutex> lock(pacing_mutex_);
  std::vector<AllocationShare> out(slot_users_.size());
  for (std::size_t slot = 0; slot < slot_users_.size(); ++slot) {
    out[slot].user_id = slot_users_[slot];
    out[slot].rate_kbps = m_user_rate_[slot]->value();
    out[slot].bytes_sent = user_bytes_[slot];
  }
  for (const auto& [id, st] : sessions_)
    if (st->streaming && st->user_slot < out.size())
      ++out[st->user_slot].active_sessions;
  return out;
}

bool PeerServer::start() {
  if (!config_.stats_json_path.empty()) {
    obs::enable_sigusr1_trigger();
    dump_generation_seen_ = obs::sigusr1_generation();
  }
  running_ = true;
  if (!reactor_start()) {
    running_ = false;
    return false;
  }
  // Announce every stored file to discovery once the port is known (the
  // hook owns the TTL refresh from there).
  if (config_.discovery) {
    ServeEndpoint self;
    self.host = config_.advertise_host;
    self.port = port_;
    self.peer_id = config_.peer_id;
    for (const std::uint64_t file_id : store_.file_ids())
      config_.discovery->announce_file(file_id, self);
  }
  return true;
}

void PeerServer::stop() {
  const bool was_running = running_.exchange(false);
  reactor_stop();  // closes every session, joins the loops
  serving_threads_ = 0;
  // At-exit dump, once, after every session has finished counting.
  if (was_running && !config_.stats_json_path.empty())
    obs::dump_json(*registry_, config_.stats_json_path);
}

void PeerServer::pacing_tick_locked() {
  ++pt_slot_;
  const double quantum_s = config_.pacing_quantum_ms / 1000.0;
  const std::uint64_t tick_t0 = obs::monotonic_ns();

  std::fill(pt_requesting_.begin(), pt_requesting_.end(), 0);
  std::fill(pt_received_.begin(), pt_received_.end(), 0.0);
  std::fill(pt_sessions_.begin(), pt_sessions_.end(), 0);
  for (const auto& [id, st] : sessions_) {
    pt_received_[st->user_slot] += st->quantum_bytes;
    st->quantum_bytes = 0.0;
    if (st->streaming) {
      pt_requesting_[st->user_slot] = 1;
      ++pt_sessions_[st->user_slot];
    }
  }

  // Federation: publish this server's cumulative per-user service to the
  // swarm and fold in what each user earned at OTHER origin servers.  The
  // hook reports a monotone swarm-wide total; only its growth since the
  // last tick enters the feedback (the policy itself accumulates), so the
  // fold is idempotent under gossip re-delivery.
  if (config_.discovery) {
    for (std::size_t s = 0; s < slot_users_.size(); ++s) {
      config_.discovery->publish_contribution(
          slot_users_[s], static_cast<double>(user_bytes_[s]));
      const double remote =
          config_.discovery->swarm_contribution(slot_users_[s]);
      if (remote > applied_remote_[s]) {
        pt_received_[s] += remote - applied_remote_[s];
        applied_remote_[s] = remote;
      }
    }
  }

  // Feedback first: Equation (2)'s ledger S accumulates the service each
  // user's peer has actually delivered (here: bytes this server sent on
  // the user's behalf — the local measurement available to a live peer).
  alloc::SlotFeedback feedback;
  feedback.slot = pt_slot_;
  feedback.received = pt_received_;
  policy_.observe(feedback);

  alloc::PeerContext ctx;
  ctx.self = 0;
  ctx.slot = pt_slot_;
  ctx.capacity = config_.rate_kbps;
  ctx.requesting = pt_requesting_;
  ctx.declared = declared_;  // live peers declare nothing (all zeros)
  policy_.allocate(ctx, pt_shares_);

  for (std::size_t s = 0; s < slot_users_.size(); ++s)
    m_user_rate_[s]->set(pt_requesting_[s] ? pt_shares_[s] : 0.0);

  for (const auto& [id, st] : sessions_) {
    if (!st->streaming) continue;
    const double share = pt_shares_[st->user_slot] /
                         static_cast<double>(pt_sessions_[st->user_slot]);
    const double grant = share * 1000.0 / 8.0 * quantum_s;  // kbps -> bytes
    st->budget_bytes += grant;
    // A session that fell asleep must not burst an unbounded backlog.
    const double burst_cap = std::max(4.0 * grant, 1.0);
    st->budget_bytes = std::min(st->budget_bytes, burst_cap);
  }
  m_quantum_ns_->record(obs::monotonic_ns() - tick_t0);
}

}  // namespace fairshare::net
