// DiscoveryNode over real TCP: join/gossip convergence, owner-routed
// provider records with successor replication and TTL expiry, client
// iterative lookups, dead-member eviction, fault-delayed connections
// parked off the loop, and stop() racing the node's own outbound work.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "disco/client.hpp"
#include "disco/node.hpp"
#include "net/fault_transport.hpp"
#include "obs/metrics.hpp"

namespace fairshare::disco {
namespace {

using namespace std::chrono_literals;

// Quarter-point ring ids: routing geometry is deterministic, so tests can
// compute owners offline with a plain ChordRing.
constexpr dht::RingId kIds[] = {
    0x2000000000000000ull, 0x6000000000000000ull, 0xa000000000000000ull,
    0xe000000000000000ull};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

struct Mesh {
  std::vector<std::unique_ptr<DiscoveryNode>> nodes;

  explicit Mesh(std::size_t n, std::uint32_t ttl_ms = 60'000,
                std::uint32_t reannounce_ms = 0) {
    for (std::size_t i = 0; i < n; ++i) {
      NodeConfig config;
      config.ring_id = kIds[i];
      config.provider_ttl_ms = ttl_ms;
      config.reannounce_period_ms = reannounce_ms;
      config.gossip_period_ms = 50;
      config.io_timeout_ms = 1'000;
      config.rng_seed = 1000 + i;
      if (i > 0) config.seeds = {nodes[0]->self()};
      auto node = std::make_unique<DiscoveryNode>(std::move(config));
      EXPECT_TRUE(node->start());
      nodes.push_back(std::move(node));
    }
  }

  ~Mesh() {
    for (auto& node : nodes) node->stop();
  }

  DiscoveryNode& by_id(dht::RingId id) {
    for (auto& node : nodes)
      if (node->ring_id() == id) return *node;
    ADD_FAILURE() << "no node with id " << id;
    return *nodes[0];
  }

  ClientConfig client_config() const {
    ClientConfig config;
    for (const auto& node : nodes) config.seeds.push_back(node->self());
    return config;
  }
};

TEST(DiscoveryNode, MeshConvergesThroughJoins) {
  Mesh mesh(4);
  EXPECT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 4) return false;
    return true;
  })) << "membership did not converge";
  // Every node agrees on the same member set.
  const auto reference = mesh.nodes[0]->status().members;
  for (const auto& node : mesh.nodes)
    EXPECT_EQ(node->status().members, reference);
}

TEST(DiscoveryNode, AnnounceLandsOnOwnerAndReplicates) {
  Mesh mesh(4);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 4) return false;
    return true;
  }));

  const std::uint64_t file_id = 424242;
  dht::ChordRing reference;
  for (const dht::RingId id : kIds) reference.join(id);
  const dht::RingId owner = reference.successor(file_key(file_id));

  net::ServeEndpoint self;
  self.port = 9999;
  self.peer_id = 55;
  EXPECT_TRUE(mesh.nodes[0]->announce_file(file_id, self));

  DiscoveryNode& owner_node = mesh.by_id(owner);
  EXPECT_TRUE(wait_until(
      [&] { return !owner_node.stored_providers(file_id).empty(); }));
  const auto stored = owner_node.stored_providers(file_id);
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].peer_id, 55u);
  EXPECT_EQ(stored[0].port, 9999u);

  // The owner pushes replicas to its successor list; with 4 nodes and
  // list length 3, every OTHER node eventually holds a copy.
  EXPECT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->stored_providers(file_id).empty()) return false;
    return true;
  })) << "successor replication did not spread the record";
}

TEST(DiscoveryNode, ClientIterativeLookupFindsOwner) {
  Mesh mesh(4);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 4) return false;
    return true;
  }));
  dht::ChordRing reference;
  for (const dht::RingId id : kIds) reference.join(id);

  // Lookups through each single seed in turn: the walk must route to the
  // ring owner regardless of entry point.
  for (const auto& seed_node : mesh.nodes) {
    ClientConfig config;
    config.seeds = {seed_node->self()};
    const Client client(config);
    for (std::uint64_t probe = 1; probe <= 8; ++probe) {
      const dht::RingId key = file_key(probe * 1000);
      const auto outcome = client.lookup(key);
      ASSERT_TRUE(outcome) << "lookup failed via seed "
                           << seed_node->ring_id();
      EXPECT_EQ(outcome->owner.id, reference.successor(key));
      EXPECT_LE(outcome->hops, 4);  // n=4: at most a walk over everyone
    }
  }
}

TEST(DiscoveryNode, ClientAnnounceResolveRoundTrip) {
  Mesh mesh(4);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 4) return false;
    return true;
  }));
  const Client client(mesh.client_config());
  wire::Provider provider;
  provider.peer_id = 7;
  provider.host = "127.0.0.1";
  provider.port = 4567;
  ASSERT_TRUE(client.announce(31337, provider, /*ttl_ms=*/60'000));
  int hops = 0;
  const auto providers = client.resolve(31337, &hops);
  ASSERT_EQ(providers.size(), 1u);
  EXPECT_EQ(providers[0], provider);
  EXPECT_GE(hops, 1);

  // resolve_peers converts to download endpoints and appends no fallback
  // when the DHT answers.
  net::PeerEndpoint fallback;
  fallback.port = 1;
  const auto peers = resolve_peers(31337, mesh.client_config(), {fallback});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].port, 4567u);
  EXPECT_EQ(peers[0].peer_id, 7u);

  // Unknown file: the static fallback is what remains.
  const auto fell_back = resolve_peers(999999, mesh.client_config(),
                                       {fallback, fallback});
  ASSERT_EQ(fell_back.size(), 1u);  // deduplicated too
  EXPECT_EQ(fell_back[0].port, 1u);
}

TEST(DiscoveryNode, RecordsExpireByTtlWithoutRefresh) {
  Mesh mesh(2, /*ttl_ms=*/300, /*reannounce_ms=*/0);
  ASSERT_TRUE(wait_until([&] {
    return mesh.nodes[0]->status().members.size() == 2 &&
           mesh.nodes[1]->status().members.size() == 2;
  }));
  const Client client(mesh.client_config());
  wire::Provider provider;
  provider.peer_id = 1;
  provider.host = "127.0.0.1";
  provider.port = 1111;
  // Client-announced records have no origin refreshing them.
  ASSERT_TRUE(client.announce(5555, provider, /*ttl_ms=*/300));
  EXPECT_FALSE(client.resolve(5555).empty());
  EXPECT_TRUE(wait_until([&] { return client.resolve(5555).empty(); }, 3s))
      << "record outlived its TTL";
}

TEST(DiscoveryNode, OriginRefreshKeepsRecordsAlive) {
  Mesh mesh(2, /*ttl_ms=*/400, /*reannounce_ms=*/100);
  ASSERT_TRUE(wait_until([&] {
    return mesh.nodes[0]->status().members.size() == 2 &&
           mesh.nodes[1]->status().members.size() == 2;
  }));
  net::ServeEndpoint self;
  self.port = 2222;
  self.peer_id = 9;
  ASSERT_TRUE(mesh.nodes[1]->announce_file(8888, self));
  const Client client(mesh.client_config());
  // Several TTL lifetimes later the record is still resolvable because
  // the origin re-announces it.
  std::this_thread::sleep_for(1200ms);
  EXPECT_FALSE(client.resolve(8888).empty());
}

TEST(DiscoveryNode, DeadMemberIsEvictedAfterFailedDials) {
  Mesh mesh(3);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 3) return false;
    return true;
  }));
  const dht::RingId dead_id = mesh.nodes[2]->ring_id();
  mesh.nodes[2]->stop();
  // Periodic gossip keeps dialing the dead node; after kDialFailureLimit
  // consecutive failures the survivors drop it.
  EXPECT_TRUE(wait_until(
      [&] {
        return mesh.nodes[0]->status().members.size() == 2 &&
               mesh.nodes[1]->status().members.size() == 2;
      },
      10s))
      << "dead member was never evicted";
  for (int i = 0; i < 2; ++i)
    for (const auto& member : mesh.nodes[i]->status().members)
      EXPECT_NE(member.id, dead_id);
}

TEST(DiscoveryNode, StatusCountsLookupsAndGossipRounds) {
  // status() reports the node's own registry counters, which start()
  // resolves; a node that has not started has served nothing.
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<DiscoveryNode>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    NodeConfig config;
    config.ring_id = kIds[i];
    config.gossip_period_ms = 0;  // rounds only through gossip_now()
    config.reannounce_period_ms = 0;
    config.io_timeout_ms = 1'000;
    config.registry = &registry;
    if (i > 0) config.seeds = {nodes[0]->self()};
    nodes.push_back(std::make_unique<DiscoveryNode>(std::move(config)));
    EXPECT_EQ(nodes.back()->status().lookups_served, 0u);
    EXPECT_EQ(nodes.back()->status().gossip_rounds, 0u);
    ASSERT_TRUE(nodes.back()->start());
  }
  ASSERT_TRUE(wait_until([&] {
    return nodes[0]->status().members.size() == 2 &&
           nodes[1]->status().members.size() == 2;
  }));

  // Every hop of an iterative lookup is one LookupRequest one node served.
  ClientConfig config;
  config.seeds = {nodes[0]->self()};
  const Client client(config);
  std::uint64_t hops = 0;
  for (std::uint64_t probe = 1; probe <= 6; ++probe) {
    const auto outcome = client.lookup(file_key(probe * 1000));
    ASSERT_TRUE(outcome);
    hops += static_cast<std::uint64_t>(outcome->hops);
  }
  EXPECT_EQ(nodes[0]->status().lookups_served +
                nodes[1]->status().lookups_served,
            hops);

  nodes[1]->gossip_now();
  nodes[1]->gossip_now();
  EXPECT_EQ(nodes[1]->status().gossip_rounds, 2u);
  EXPECT_EQ(nodes[0]->status().gossip_rounds, 0u);
  for (auto& node : nodes) node->stop();
}

TEST(DiscoveryNode, LedgerGossipConvergesAcrossTheMesh) {
  Mesh mesh(3);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& node : mesh.nodes)
      if (node->status().members.size() != 3) return false;
    return true;
  }));
  // Node 0 publishes user 42's local contribution; every node's hook view
  // of the user's REMOTE standing must converge to it (except node 0
  // itself, whose own origin is excluded).
  mesh.nodes[0]->publish_contribution(42, 1e6);
  EXPECT_TRUE(wait_until([&] {
    return mesh.nodes[1]->swarm_contribution(42) == 1e6 &&
           mesh.nodes[2]->swarm_contribution(42) == 1e6;
  })) << "ledger gossip did not converge";
  EXPECT_DOUBLE_EQ(mesh.nodes[0]->swarm_contribution(42), 0.0);
}

TEST(DiscoveryNode, DelayedConnectionsParkOnReleaseTimer) {
  // Every inbound and outbound frame is held back 50 ms.  While a
  // connection waits on that delay its fd must leave the epoll set; left
  // registered, the level-triggered loop spins until the release.
  net::FaultPlan plan;
  plan.seed = 5;
  plan.delay_rate = 1.0;
  plan.delay_ms = 50;
  auto injector = std::make_shared<net::FaultInjector>(plan);
  obs::MetricsRegistry registry;
  NodeConfig config;
  config.ring_id = kIds[0];
  config.gossip_period_ms = 0;
  config.reannounce_period_ms = 0;
  config.registry = &registry;
  config.transport_wrapper =
      [injector](std::unique_ptr<net::Transport> inner) {
        return injector->wrap(std::move(inner));
      };
  DiscoveryNode node(std::move(config));
  ASSERT_TRUE(node.start());
  net::ServeEndpoint endpoint;
  endpoint.port = 3333;
  endpoint.peer_id = 12;
  ASSERT_TRUE(node.announce_file(777, endpoint));  // local owner: no dial

  ClientConfig client_config;
  client_config.seeds = {node.self()};
  const Client client(client_config);
  const auto providers = client.resolve(777);
  ASSERT_EQ(providers.size(), 1u);
  EXPECT_EQ(providers[0].port, 3333u);
  EXPECT_EQ(providers[0].peer_id, 12u);
  const auto status = client.status(node.self());
  ASSERT_TRUE(status);
  EXPECT_EQ(status->provider_records, 1u);
  const std::uint16_t port = node.port();
  node.stop();

  const std::uint64_t delayed = injector->stats().frames_delayed;
  ASSERT_GE(delayed, 4u);  // two frames per request at the least
  const std::uint64_t wakeups =
      registry
          .counter("fairshare_loop_wakeups_total",
                   {{"loop", "disco." + std::to_string(port)}})
          .value();
  EXPECT_LE(wakeups, 10 * delayed) << delayed << " delayed frames";
}

TEST(DiscoveryNode, StopWhileReannouncingFilesItOwns) {
  // Node A re-announces every millisecond.  For a file A owns, that runs
  // handle_announce on an outbound worker, which queues the replica push
  // on the same pool — so stop() lands while workers are submitting to
  // the pool it is shutting down.
  for (int round = 0; round < 20; ++round) {
    Mesh mesh(1);
    NodeConfig config;
    config.ring_id = kIds[2];
    config.reannounce_period_ms = 1;
    config.gossip_period_ms = 0;
    config.io_timeout_ms = 1'000;
    config.seeds = {mesh.nodes[0]->self()};
    DiscoveryNode a(std::move(config));
    ASSERT_TRUE(a.start());
    net::ServeEndpoint endpoint;
    endpoint.port = 4000;
    endpoint.peer_id = 3;
    for (std::uint64_t file = 1; file <= 16; ++file)
      a.announce_file(file * 7919, endpoint);
    std::this_thread::sleep_for(std::chrono::milliseconds(5 + round % 7));
    a.stop();
  }
}

}  // namespace
}  // namespace fairshare::disco
