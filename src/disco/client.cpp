#include "disco/client.hpp"

#include <algorithm>

#include "disco/node.hpp"  // file_key
#include "net/socket.hpp"

namespace fairshare::disco {

Client::Client(ClientConfig config) : config_(std::move(config)) {}

std::optional<std::vector<std::byte>> Client::request(
    const wire::Member& target, std::span<const std::byte> frame) const {
  auto socket = net::Socket::connect_to(target.host, target.port);
  if (!socket) return std::nullopt;
  socket->set_recv_timeout(config_.io_timeout_ms);
  socket->set_send_timeout(config_.io_timeout_ms);
  if (!net::send_frame(*socket, frame)) return std::nullopt;
  return net::recv_frame(*socket, 1 << 20);
}

std::optional<LookupOutcome> Client::lookup(dht::RingId key) const {
  const auto frame = wire::encode(wire::LookupRequest{key});
  // Each seed gets one full walk; a dead hop mid-walk fails over to the
  // next seed (the ring re-routes around the casualty after its peers
  // drop it, so a later walk takes a live path).
  for (std::size_t s = 0; s < config_.seeds.size(); ++s) {
    wire::Member at = config_.seeds[s];
    LookupOutcome outcome;
    bool walk_alive = true;
    for (int hop = 0; hop < config_.max_hops && walk_alive; ++hop) {
      const auto resp = request(at, frame);
      if (!resp) {
        walk_alive = false;
        break;
      }
      const auto decoded = wire::decode_lookup_response(*resp);
      if (!decoded) {
        walk_alive = false;
        break;
      }
      ++outcome.hops;
      if (decoded->done) {
        outcome.owner = decoded->target;
        outcome.successors = decoded->successors;
        return outcome;
      }
      if (decoded->target == at) break;  // routing loop; try next seed
      at = decoded->target;
    }
  }
  return std::nullopt;
}

std::vector<wire::Provider> Client::resolve(std::uint64_t file_id,
                                            int* hops_out) const {
  if (hops_out) *hops_out = 0;
  const auto outcome = lookup(file_key(file_id));
  if (!outcome) return {};
  if (hops_out) *hops_out = outcome->hops;

  // Owner first, then its successor replicas: the union covers both a
  // freshly-killed owner (replicas still answer) and a replica that has
  // not yet received the record.
  std::vector<wire::Member> candidates;
  candidates.push_back(outcome->owner);
  for (const wire::Member& m : outcome->successors)
    if (m != outcome->owner) candidates.push_back(m);

  const auto frame = wire::encode(wire::ResolveRequest{file_id});
  std::vector<wire::Provider> providers;
  for (const wire::Member& target : candidates) {
    const auto resp = request(target, frame);
    if (!resp) continue;
    const auto decoded = wire::decode_resolve_response(*resp);
    if (!decoded) continue;
    for (const wire::Provider& p : decoded->providers) {
      const bool dup = std::any_of(
          providers.begin(), providers.end(),
          [&](const wire::Provider& q) { return q == p; });
      if (!dup) providers.push_back(p);
    }
    if (!providers.empty()) return providers;
  }
  return providers;
}

bool Client::announce(std::uint64_t file_id, const wire::Provider& provider,
                      std::uint32_t ttl_ms) const {
  const auto outcome = lookup(file_key(file_id));
  if (!outcome) return false;
  wire::AnnounceRequest req;
  req.file_id = file_id;
  req.provider = provider;
  req.ttl_ms = ttl_ms;
  req.replicate = true;
  const auto frame = wire::encode(req);

  std::vector<wire::Member> candidates;
  candidates.push_back(outcome->owner);
  for (const wire::Member& m : outcome->successors)
    if (m != outcome->owner) candidates.push_back(m);
  for (const wire::Member& target : candidates) {
    const auto resp = request(target, frame);
    if (!resp) continue;
    const auto decoded = wire::decode_announce_response(*resp);
    if (decoded && decoded->stored) return true;
  }
  return false;
}

std::optional<wire::StatusResponse> Client::status(
    const wire::Member& node) const {
  const auto resp = request(node, wire::encode(wire::StatusRequest{}));
  if (!resp) return std::nullopt;
  return wire::decode_status_response(*resp);
}

std::vector<net::PeerEndpoint> resolve_peers(
    std::uint64_t file_id, const ClientConfig& config,
    const std::vector<net::PeerEndpoint>& static_fallback, int* hops_out) {
  const Client client(config);
  std::vector<net::PeerEndpoint> peers;
  for (const wire::Provider& p : client.resolve(file_id, hops_out)) {
    net::PeerEndpoint endpoint;
    endpoint.host = p.host;
    endpoint.port = p.port;
    endpoint.peer_id = p.peer_id;
    peers.push_back(std::move(endpoint));
  }
  if (peers.empty()) peers = static_fallback;
  return net::dedup_endpoints(std::move(peers));
}

}  // namespace fairshare::disco
