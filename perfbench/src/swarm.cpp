#include "swarm.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "coding/chunked.hpp"
#include "coding/encoder.hpp"
#include "crypto/chacha20.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace fairshare;

namespace {

// Fixed ring positions keep the routing geometry, and so the hop counts,
// identical from run to run.
constexpr dht::RingId kRingIds[] = {0x2000000000000000ull,
                                    0x7000000000000000ull,
                                    0xc000000000000000ull,
                                    0xe800000000000000ull};

template <typename Encoder>
coding::FileInfo encode_into(Encoder& encoder,
                             std::span<p2p::MessageStore> stores,
                             LayerCounters* layers) {
  for (p2p::MessageStore& store : stores) {
    const std::uint64_t t0 = now_ns();
    std::vector<coding::EncodedMessage> batch = encoder.generate(encoder.k());
    const std::uint64_t t1 = now_ns();
    for (coding::EncodedMessage& m : batch)
      if (!store.store(std::move(m)))
        throw std::runtime_error("peer store refused a coded message");
    const std::uint64_t t2 = now_ns();
    if (layers) {
      layers->encode_ns += t1 - t0;
      layers->encoded += batch.size();
      layers->store_ns += t2 - t1;
      layers->stored += batch.size();
    }
  }
  // The digest table covers every message generated so far, so it is
  // taken only after every peer's share exists.
  return encoder.info();
}

}  // namespace

Identities Identities::generate(std::uint64_t seed, std::size_t servers,
                                std::size_t users) {
  std::array<std::uint8_t, 32> key{};
  std::memcpy(key.data(), &seed, sizeof seed);
  key[31] = 0x5a;
  const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  crypto::ChaCha20 rng(std::span<const std::uint8_t, 32>(key), nonce);
  Identities ids;
  for (std::size_t i = 0; i < servers; ++i)
    ids.servers.push_back(crypto::RsaKeyPair::generate(512, rng));
  for (std::size_t u = 0; u < users; ++u)
    ids.users.push_back(crypto::RsaKeyPair::generate(512, rng));
  return ids;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
  return out;
}

coding::FileInfo publish(const coding::SecretKey& secret,
                         std::uint64_t file_id,
                         std::span<const std::byte> data,
                         coding::CodecKind codec,
                         std::span<p2p::MessageStore> stores,
                         LayerCounters* layers) {
  const coding::CodingParams params = coding::CodingParams::paper_defaults();
  if (codec == coding::CodecKind::chunked) {
    coding::chunked::Encoder encoder(secret, file_id, data, params,
                                     coding::ChunkedSchedule{});
    return encode_into(encoder, stores, layers);
  }
  coding::FileEncoder encoder(secret, file_id, data, params);
  return encode_into(encoder, stores, layers);
}

Swarm::Swarm(const Config& config, const Identities& ids,
             std::vector<p2p::MessageStore> stores,
             std::span<const std::uint64_t> file_ids,
             obs::MetricsRegistry& registry)
    : ids_(ids) {
  if (config.discovery_nodes > std::size(kRingIds) ||
      stores.size() > ids.servers.size() ||
      (config.discovery_nodes == 0 && !file_ids.empty()))
    throw std::runtime_error("swarm shape out of range");
  for (std::size_t i = 0; i < config.discovery_nodes; ++i) {
    disco::NodeConfig node;
    node.ring_id = kRingIds[i];
    node.origin_id = server_peer_id(i);
    node.rng_seed = config.seed + i;
    node.registry = &registry;
    // Records never expire and nobody churns during a run: keep the
    // periodic re-announce and gossip traffic out of the measurement.
    node.provider_ttl_ms = 3'600'000;
    node.reannounce_period_ms = 3'600'000;
    node.gossip_period_ms = 3'600'000;
    if (i > 0) node.seeds = {nodes_[0]->self()};
    auto n = std::make_shared<disco::DiscoveryNode>(std::move(node));
    if (!n->start()) throw std::runtime_error("discovery node did not start");
    nodes_.push_back(std::move(n));
  }
  // Joiners learn the mesh from node 0; explicit rounds spread the rest
  // so every announce below routes to the true owner.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (bool converged = false; !converged;) {
    converged = true;
    for (const auto& n : nodes_)
      if (n->status().members.size() < nodes_.size()) {
        converged = false;
        n->gossip_now();
      }
    if (std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("discovery mesh did not converge");
  }

  for (std::size_t i = 0; i < stores.size(); ++i) {
    net::PeerServer::Config sc;
    sc.peer_id = server_peer_id(i);
    sc.rate_kbps = config.rate_kbps;
    sc.require_auth = true;
    sc.rng_seed = config.seed * 1000 + i;
    sc.backend = net::NetBackend::epoll;
    sc.num_loops = 1;
    sc.registry = &registry;
    if (!nodes_.empty()) sc.discovery = nodes_[i % nodes_.size()];
    auto server = std::make_unique<net::PeerServer>(
        sc, std::move(stores[i]), ids.servers[i]);
    for (std::size_t u = 0; u < ids.users.size(); ++u)
      server->register_user(user_id(u), ids.users[u].pub);
    if (!server->start()) throw std::runtime_error("peer server did not start");
    servers_.push_back(std::move(server));
  }

  const disco::Client client(disco_config());
  for (const std::uint64_t file_id : file_ids)
    while (client.resolve(file_id).size() < servers_.size()) {
      if (std::chrono::steady_clock::now() > deadline)
        throw std::runtime_error("file did not resolve to every server");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

Swarm::~Swarm() {
  for (auto& server : servers_) server->stop();
  for (auto& node : nodes_) node->stop();
}

disco::ClientConfig Swarm::disco_config() const {
  disco::ClientConfig config;
  for (const auto& n : nodes_) config.seeds.push_back(n->self());
  return config;
}

std::vector<net::PeerEndpoint> Swarm::endpoints() const {
  std::vector<net::PeerEndpoint> out;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    net::PeerEndpoint p;
    p.port = servers_[i]->port();
    p.peer_id = server_peer_id(i);
    p.identity = ids_.servers[i].pub;
    out.push_back(std::move(p));
  }
  return out;
}

void Swarm::attach_identities(std::vector<net::PeerEndpoint>& peers) const {
  for (net::PeerEndpoint& p : peers)
    for (std::size_t i = 0; i < servers_.size(); ++i)
      if (p.peer_id == server_peer_id(i)) p.identity = ids_.servers[i].pub;
}

}  // namespace perfbench
