// Chaos suite: the retry/failover download path under seeded fault
// injection over real sockets (ISSUE acceptance scenarios).
//
// Everything here is driven by FaultPlan seeds — `ctest -L chaos` selects
// this suite alone, and the FAIRSHARE_CHAOS_ITERS compile definition (a
// CMake cache variable) scales how many seeds each scenario sweeps, so a
// soak run is `-DFAIRSHARE_CHAOS_ITERS=50` away.  No test synchronizes by
// sleeping: completion is observed through download_file's own blocking
// call, and assertions tolerate scheduling variance but not semantic
// variance (success/failure and the counter partition must hold for every
// seed).
//
// Client-side plans run under download_file's blocking send_frame /
// recv_frame, which sleep out a delay's retry_after() release; the
// server-side hook runs on the epoll reactor, which arms a timer for the
// same release.  Both go through FaultyTransport's one frame machine.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/encoder.hpp"
#include "net/download_client.hpp"
#include "net/fault_transport.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"
#include "sim/rng.hpp"

#ifndef FAIRSHARE_CHAOS_ITERS
#define FAIRSHARE_CHAOS_ITERS 3
#endif

namespace fairshare::net {
namespace {

constexpr int kIters = FAIRSHARE_CHAOS_ITERS;

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

// A swarm where every peer holds its own full batch of k messages
// (swarm_test idiom, auth off) and faults are injected client-side via a
// per-peer FaultInjector handed to DownloadOptions::transport_factory.
struct ChaosSwarm {
  std::vector<std::unique_ptr<PeerServer>> servers;
  std::vector<PeerEndpoint> endpoints;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  coding::FileInfo info;
  std::vector<std::byte> data;
  coding::SecretKey secret{};

  ChaosSwarm(std::size_t n_peers, std::size_t bytes,
             const std::vector<FaultPlan>& plans) {
    secret[0] = 77;
    data = blob(bytes, 1234);
    const coding::CodingParams params{gf::FieldId::gf2_32, 256};  // 1 KiB
    coding::FileEncoder encoder(secret, 42, data, params);
    for (std::size_t p = 0; p < n_peers; ++p) {
      p2p::MessageStore store;
      for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
      PeerServer::Config config;
      config.peer_id = p;
      config.require_auth = false;
      config.rng_seed = 100 + p;
      // A dropped request frame must not stall a session for seconds.
      config.handshake_timeout_ms = 300;
      auto server = std::make_unique<PeerServer>(config, std::move(store));
      EXPECT_TRUE(server->start());
      PeerEndpoint ep;
      ep.port = server->port();
      ep.peer_id = p;
      endpoints.push_back(ep);
      servers.push_back(std::move(server));
      injectors.push_back(std::make_unique<FaultInjector>(plans[p]));
    }
    info = encoder.info();
  }

  ~ChaosSwarm() {
    for (auto& s : servers) s->stop();
  }

  /// Connection factory routing every dial through the peer's injector.
  std::function<std::unique_ptr<Transport>(const PeerEndpoint&)> factory() {
    return [this](const PeerEndpoint& ep) -> std::unique_ptr<Transport> {
      FaultInjector& injector = *injectors[ep.peer_id];
      if (!injector.admits_connection()) return nullptr;  // ECONNREFUSED
      auto socket = Socket::connect_to(ep.host, ep.port);
      if (!socket) return nullptr;
      return injector.wrap(std::make_unique<Socket>(std::move(*socket)));
    };
  }
};

/// The documented failure-event partition (download_client.hpp): per peer
/// at most one terminal failure, retries bounded by attempts, and the
/// report totals are exactly the per-peer sums.
void assert_counter_partition(const DownloadReport& report,
                              std::size_t n_peers) {
  ASSERT_EQ(report.per_peer.size(), n_peers);
  std::size_t retried = 0, failed = 0;
  for (const PeerDownloadStats& ps : report.per_peer) {
    EXPECT_LE(ps.sessions_retried + (ps.gave_up ? 1u : 0u), ps.attempts)
        << "peer " << ps.peer_id << ": more failure events than attempts";
    if (ps.attempts > 0) {
      EXPECT_LE(ps.sessions_retried, ps.attempts - 1)
          << "peer " << ps.peer_id << ": the final attempt cannot be retried";
    }
    retried += ps.sessions_retried;
    failed += ps.gave_up ? 1u : 0u;
  }
  EXPECT_EQ(report.sessions_retried, retried);
  EXPECT_EQ(report.sessions_failed, failed);
  EXPECT_LE(report.sessions_failed, n_peers);
  EXPECT_LE(report.frames_corrupt, report.messages_rejected);
}

/// Once download_file has returned, every client series equals its report
/// row: each event was counted once, in the row, and the row was added to
/// the registry when its peer's session thread ended.
void expect_series_equal_rows(obs::MetricsRegistry& registry,
                              const DownloadReport& report,
                              std::uint64_t user_id) {
  for (const PeerDownloadStats& ps : report.per_peer) {
    const obs::LabelList labels = {{"peer", std::to_string(ps.peer_id)},
                                   {"user", std::to_string(user_id)}};
    const auto series = [&](const char* name) {
      return registry.counter(name, labels).value();
    };
    EXPECT_EQ(series("fairshare_client_attempts_total"), ps.attempts);
    EXPECT_EQ(series("fairshare_client_retries_total"), ps.sessions_retried);
    EXPECT_EQ(series("fairshare_client_frames_total"), ps.frames_received);
    EXPECT_EQ(series("fairshare_client_bytes_received_total"),
              ps.bytes_received);
    EXPECT_EQ(series("fairshare_client_frames_corrupt_total"),
              ps.frames_corrupt);
    EXPECT_EQ(series("fairshare_client_messages_innovative_total"),
              ps.messages_accepted);
    EXPECT_EQ(series("fairshare_client_messages_redundant_total"),
              ps.messages_redundant);
    EXPECT_EQ(series("fairshare_client_messages_rejected_total"),
              ps.messages_rejected);
  }
}

// ------------------------------------------------------------- acceptance
// ISSUE scenario: 4 peers — one refuses outright, one resets mid-stream,
// one corrupts 10% of frames, one is healthy — and the download still
// produces the exact file for every fault seed, because the union of
// surviving peers holds >= k innovative messages.

TEST(NetChaos, SwarmSurvivesRefusalResetAndCorruption) {
  std::size_t corrupt_frames_total = 0;
  for (int iter = 0; iter < kIters; ++iter) {
    const std::uint64_t seed = 0xC0DE + 1000u * static_cast<unsigned>(iter);
    std::vector<FaultPlan> plans(4);
    plans[0].refuse_connection = true;
    plans[1].seed = seed + 1;
    // The request spends the whole budget, so the session's very next
    // frame — the first streamed message or the shutdown stop frame —
    // trips the RST.  A larger budget would
    // make the "reset demonstrably fired" assertion below a scheduling
    // race: on a loaded single-core box the other three peers can finish
    // the decode before this peer's reader consumes its Nth frame.
    plans[1].reset_after_frames = 1;
    plans[2].seed = seed + 2;
    plans[2].corrupt_rate = 0.10;
    // plans[3]: healthy.
    ChaosSwarm swarm(4, 100000, plans);

    DownloadOptions options;
    options.user_id = 9;
    options.rng_seed = seed;
    options.transport_factory = swarm.factory();
    const DownloadReport report =
        download_file(swarm.endpoints, swarm.secret, swarm.info, options);

    ASSERT_TRUE(report.success) << "seed " << seed;
    EXPECT_EQ(report.data, swarm.data) << "seed " << seed;
    assert_counter_partition(report, 4);
    // Each injected fault demonstrably fired.
    EXPECT_GE(swarm.injectors[0]->stats().connections_refused, 1u);
    EXPECT_GE(swarm.injectors[1]->stats().connections_reset, 1u);
    corrupt_frames_total += swarm.injectors[2]->stats().frames_corrupted;
    // The refusing peer never produces a message.
    EXPECT_EQ(report.per_peer[0].messages_accepted, 0u);
  }
  // ~10% of the dozens of frames the corrupting peer streams per seed.
  EXPECT_GE(corrupt_frames_total, 1u);
}

TEST(NetChaos, FailsCleanlyAndPromptlyWhenSurvivorsHoldLessThanK) {
  // Survivors jointly hold k-2 < k messages: the download must fail, say
  // so, keep its books straight, and return promptly (bounded backoff).
  std::vector<FaultPlan> plans(2);
  plans[0].refuse_connection = true;
  ChaosSwarm swarm(2, 50000, plans);
  // Rebuild peer 1's server with a store that is 2 messages short.
  swarm.servers[1]->stop();
  coding::FileEncoder encoder(swarm.secret, 42, swarm.data,
                              coding::CodingParams{gf::FieldId::gf2_32, 256});
  const std::size_t k = encoder.k();
  ASSERT_GT(k, 2u);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(k - 2)) store.store(std::move(m));
  PeerServer::Config config;
  config.require_auth = false;
  PeerServer short_peer(config, std::move(store));
  ASSERT_TRUE(short_peer.start());
  swarm.endpoints[1].port = short_peer.port();

  DownloadOptions options;
  options.user_id = 9;
  options.retry = RetryPolicy{/*max_attempts=*/3, /*base_ms=*/2,
                              /*max_ms=*/20};
  options.transport_factory = swarm.factory();
  const DownloadReport report =
      download_file(swarm.endpoints, swarm.secret, swarm.info, options);

  EXPECT_FALSE(report.success);
  EXPECT_TRUE(report.data.empty());
  EXPECT_LT(report.seconds, 5.0) << "failure must be prompt, not a hang";
  assert_counter_partition(report, 2);
  // Fully deterministic here (the decode can never complete): both peers
  // exhaust the policy, and every failed attempt is partitioned.
  EXPECT_EQ(report.per_peer[0].attempts, 3u);
  EXPECT_EQ(report.per_peer[1].attempts, 3u);
  EXPECT_EQ(report.sessions_retried, 4u);  // 2 per peer
  EXPECT_EQ(report.sessions_failed, 2u);
  // The short peer's store was drained exactly once; replays on later
  // attempts fell out as non-innovative.
  EXPECT_EQ(report.per_peer[1].messages_accepted, k - 2);
  short_peer.stop();
}

// ---------------------------------------------------- chunked resume
// Satellite (chunked codec PR): a mid-stream reset during a chunked
// download is retried and the decode *resumes* — per-class solver state
// survives across sessions, replayed messages fall out as non-innovative,
// and the cascade still completes every class for every fault seed.

TEST(NetChaos, ChunkedDownloadResumesAcrossMidStreamResets) {
  coding::SecretKey secret{};
  secret[0] = 88;
  const auto data = blob(100000, 4321);
  const coding::CodingParams params{gf::FieldId::gf2_32, 256};  // 1 KiB
  coding::ChunkedSchedule schedule;
  schedule.class_size = 16;
  schedule.overlap = 4;
  schedule.seed = 5;
  coding::chunked::Encoder encoder(secret, 42, data, params, schedule);
  const std::size_t k = encoder.k();
  const auto pool = encoder.generate(k);
  ASSERT_GT(encoder.class_map().classes(), 2u);

  for (int iter = 0; iter < kIters; ++iter) {
    const std::uint64_t seed = 0xC4UL + 1000u * static_cast<unsigned>(iter);
    std::vector<FaultPlan> plans(3);
    // Peer 0 dies mid-stream on every attempt (the request frame plus an
    // eighth of the coded messages fit the budget); peer 1 corrupts; peer
    // 2 delivers everything intact, so the swarm jointly always covers
    // the file.  Peers 1 and 2 are also slowed by a 1 ms per-frame delay:
    // their client threads sleep between frames, so even on a loaded
    // one-core box peer 0's undelayed stream reaches its reset budget
    // before the others can cover the file — the reset assertion below
    // must hold for every scheduling interleaving, not just fair ones.
    plans[0].seed = seed;
    plans[0].reset_after_frames = 1 + k / 8;
    plans[1].seed = seed + 1;
    plans[1].corrupt_rate = 0.10;
    plans[1].delay_rate = 1.0;
    plans[1].delay_ms = 1;
    plans[2].seed = seed + 2;
    plans[2].delay_rate = 1.0;
    plans[2].delay_ms = 1;

    std::vector<std::unique_ptr<PeerServer>> servers;
    std::vector<PeerEndpoint> endpoints;
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    for (std::size_t p = 0; p < plans.size(); ++p) {
      p2p::MessageStore store;
      for (const auto& m : pool) store.store(coding::EncodedMessage(m));
      PeerServer::Config config;
      config.peer_id = p;
      config.require_auth = false;
      config.rng_seed = 200 + p;
      config.handshake_timeout_ms = 300;
      auto server = std::make_unique<PeerServer>(config, std::move(store));
      ASSERT_TRUE(server->start());
      PeerEndpoint ep;
      ep.port = server->port();
      ep.peer_id = p;
      endpoints.push_back(ep);
      servers.push_back(std::move(server));
      injectors.push_back(std::make_unique<FaultInjector>(plans[p]));
    }

    DownloadOptions options;
    options.user_id = 9;
    options.rng_seed = seed;
    options.retry = RetryPolicy{/*max_attempts=*/4, /*base_ms=*/2,
                                /*max_ms=*/20};
    options.transport_factory =
        [&](const PeerEndpoint& ep) -> std::unique_ptr<Transport> {
      FaultInjector& injector = *injectors[ep.peer_id];
      if (!injector.admits_connection()) return nullptr;
      auto socket = Socket::connect_to(ep.host, ep.port);
      if (!socket) return nullptr;
      return injector.wrap(std::make_unique<Socket>(std::move(*socket)));
    };
    const DownloadReport report =
        download_file(endpoints, secret, encoder.info(), options);

    ASSERT_TRUE(report.success) << "seed " << seed;
    EXPECT_EQ(report.data, data) << "seed " << seed;
    assert_counter_partition(report, plans.size());
    // The reset demonstrably interrupted a chunked stream mid-flight...
    EXPECT_GE(injectors[0]->stats().connections_reset, 1u);
    // ...yet no message was double-counted: the pool holds k distinct
    // messages, and replays across retried sessions fall out as
    // non-innovative (donation races can complete a class early, so the
    // exact count depends on interleaving — the bound does not).
    EXPECT_LE(report.messages_accepted, k);
    EXPECT_GE(report.messages_accepted, k / 2);
    for (auto& s : servers) s->stop();
  }
}

// ------------------------------------------------- counter partition
// Satellite: a peer that completes the handshake and then resets must be
// counted once per failed attempt — in sessions_retried when another
// attempt follows, in sessions_failed only for its terminal attempt —
// never in both.  Exercises the server-side accept-path wrapper hook.

TEST(NetChaos, HandshakeThenResetIsCountedOnce) {
  coding::SecretKey secret{};
  secret[0] = 5;
  const auto data = blob(20000, 77);
  coding::FileEncoder encoder(secret, 42, data,
                              coding::CodingParams{gf::FieldId::gf2_32, 256});
  p2p::MessageStore store;
  for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));

  // Server-side injector: the request frame is read (handshake done), then
  // the first outgoing coded message trips the reset.
  FaultPlan plan;
  plan.reset_after_frames = 1;
  auto injector = std::make_shared<FaultInjector>(plan);
  PeerServer::Config config;
  config.require_auth = false;
  config.transport_wrapper = [injector](std::unique_ptr<Transport> inner) {
    return injector->wrap(std::move(inner));
  };
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  PeerEndpoint ep;
  ep.port = server.port();
  obs::MetricsRegistry registry;
  DownloadOptions options;
  options.retry = RetryPolicy{/*max_attempts=*/2, /*base_ms=*/2,
                              /*max_ms=*/20};
  options.registry = &registry;
  const DownloadReport report =
      download_file({ep}, secret, encoder.info(), options);

  EXPECT_FALSE(report.success);
  assert_counter_partition(report, 1);
  expect_series_equal_rows(registry, report, options.user_id);
  EXPECT_EQ(report.per_peer[0].attempts, 2u);
  EXPECT_EQ(report.per_peer[0].sessions_retried, 1u);
  EXPECT_TRUE(report.per_peer[0].gave_up);
  EXPECT_EQ(report.sessions_retried, 1u);
  EXPECT_EQ(report.sessions_failed, 1u);
  EXPECT_EQ(report.per_peer[0].messages_accepted, 0u);
  EXPECT_GE(injector->stats().connections_reset, 2u);  // once per attempt
  server.stop();
}

TEST(NetChaos, RefusingPeerExhaustsPolicyDeterministically) {
  coding::SecretKey secret{};
  secret[0] = 5;
  const auto data = blob(4096, 78);
  coding::FileEncoder encoder(secret, 42, data,
                              coding::CodingParams{gf::FieldId::gf2_32, 256});

  std::vector<FaultPlan> plans(1);
  plans[0].refuse_connection = true;
  FaultInjector injector(plans[0]);
  PeerEndpoint ep;
  ep.port = 1;  // never dialed: the injector refuses first
  DownloadOptions options;
  options.retry = RetryPolicy{/*max_attempts=*/3, /*base_ms=*/2,
                              /*max_ms=*/20};
  options.transport_factory =
      [&](const PeerEndpoint&) -> std::unique_ptr<Transport> {
    if (!injector.admits_connection()) return nullptr;
    ADD_FAILURE() << "refusing injector admitted a connection";
    return nullptr;
  };
  const DownloadReport report =
      download_file({ep}, secret, encoder.info(), options);

  EXPECT_FALSE(report.success);
  assert_counter_partition(report, 1);
  EXPECT_EQ(report.per_peer[0].attempts, 3u);
  EXPECT_EQ(report.sessions_retried, 2u);
  EXPECT_EQ(report.sessions_failed, 1u);
  EXPECT_EQ(injector.stats().connections_refused, 3u);
}

// ---------------------------------------------------------- corruption
// Satellite: every flipped-byte frame is rejected by the per-message MD5
// digest, bumps messages_rejected and frames_corrupt, and never reaches
// the solver — end to end over a real socket.

TEST(NetChaos, FullyCorruptStreamIsRejectedByDigests) {
  coding::SecretKey secret{};
  secret[0] = 5;
  const auto data = blob(20000, 79);
  coding::FileEncoder encoder(secret, 42, data,
                              coding::CodingParams{gf::FieldId::gf2_32, 256});
  const std::size_t k = encoder.k();
  p2p::MessageStore store;
  for (auto& m : encoder.generate(k)) store.store(std::move(m));
  PeerServer::Config config;
  config.require_auth = false;
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  FaultPlan plan;
  plan.seed = 99;
  plan.corrupt_rate = 1.0;
  FaultInjector injector(plan);
  PeerEndpoint ep;
  ep.port = server.port();
  DownloadOptions options;
  options.retry.max_attempts = 1;  // one pass over the store is enough
  options.transport_factory =
      [&](const PeerEndpoint& peer) -> std::unique_ptr<Transport> {
    auto socket = Socket::connect_to(peer.host, peer.port);
    if (!socket) return nullptr;
    return injector.wrap(std::make_unique<Socket>(std::move(*socket)));
  };
  const DownloadReport report =
      download_file({ep}, secret, encoder.info(), options);

  EXPECT_FALSE(report.success);
  assert_counter_partition(report, 1);
  // Every streamed frame was flipped, parsed, and thrown out by MD5.  (The
  // request the client wrote is flipped too — its rate field — which the
  // server sanitizes; the stream itself still flows.)
  EXPECT_EQ(report.per_peer[0].messages_accepted, 0u);
  EXPECT_EQ(report.frames_corrupt, k);
  EXPECT_EQ(report.messages_rejected, k);
  EXPECT_GE(injector.stats().frames_corrupted, k);  // request flip included
  server.stop();
}

// ------------------------------------------------------------- property
// Satellite: decode success is a function of *coverage*, not of the fault
// seed.  One screened pool of exactly k jointly-independent messages is
// sliced across peers; random peers refuse; the rest serve their slices
// through drop/corrupt/duplicate/delay noise.  For every seed: the
// download succeeds iff the surviving slices jointly cover all k messages.

TEST(NetChaos, SuccessDependsOnCoverageNotOnFaultSeed) {
  constexpr std::size_t kPeers = 3;
  const coding::CodingParams params{gf::FieldId::gf2_32, 64};  // 256 B msgs
  coding::SecretKey secret{};
  secret[0] = 13;
  const auto data = blob(1536, 80);  // k = 6

  const int scenarios = 16 * kIters;
  int successes = 0;
  for (int i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = 0x5EED0000u + static_cast<unsigned>(i);
    sim::SplitMix64 rng(seed);
    coding::FileEncoder encoder(secret, 42, data, params);
    const std::size_t k = encoder.k();
    ASSERT_EQ(k, 6u);
    const auto pool = encoder.generate(k);

    // Contiguous slice (with wraparound) per peer; random refusals.
    std::vector<bool> covered(k, false);
    std::vector<std::size_t> begin(kPeers), len(kPeers);
    std::vector<bool> refuses(kPeers);
    for (std::size_t p = 0; p < kPeers; ++p) {
      begin[p] = rng.next_below(k);
      len[p] = rng.next_below(k + 1);
      refuses[p] = rng.next_double() < 0.35;
      if (!refuses[p])
        for (std::size_t j = 0; j < len[p]; ++j)
          covered[(begin[p] + j) % k] = true;
    }
    bool expect_success = true;
    for (bool c : covered) expect_success = expect_success && c;

    std::vector<std::unique_ptr<PeerServer>> servers;
    std::vector<PeerEndpoint> endpoints;
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    for (std::size_t p = 0; p < kPeers; ++p) {
      p2p::MessageStore store;
      for (std::size_t j = 0; j < len[p]; ++j)
        store.store(coding::EncodedMessage(pool[(begin[p] + j) % k]));
      PeerServer::Config config;
      config.peer_id = p;
      config.require_auth = false;
      config.handshake_timeout_ms = 150;  // a dropped request stalls briefly
      auto server = std::make_unique<PeerServer>(config, std::move(store));
      ASSERT_TRUE(server->start());
      PeerEndpoint ep;
      ep.port = server->port();
      ep.peer_id = p;
      endpoints.push_back(ep);
      servers.push_back(std::move(server));

      FaultPlan plan;
      plan.seed = seed ^ (0xABCDull * (p + 1));
      plan.refuse_connection = refuses[p];
      plan.drop_rate = 0.08;
      plan.corrupt_rate = 0.06;
      plan.duplicate_rate = 0.12;
      plan.delay_rate = 0.08;
      plan.delay_ms = 1;
      injectors.push_back(std::make_unique<FaultInjector>(plan));
    }

    DownloadOptions options;
    options.rng_seed = seed;
    // Benign per-frame faults vanish under 10 re-streams of a slice: the
    // per-attempt chance of losing any given message is ~0.2, so the odds
    // a surviving peer never lands one are ~1e-7 per message.
    options.retry = RetryPolicy{/*max_attempts=*/10, /*base_ms=*/2,
                                /*max_ms=*/10};
    options.transport_factory =
        [&](const PeerEndpoint& ep) -> std::unique_ptr<Transport> {
      FaultInjector& injector = *injectors[ep.peer_id];
      if (!injector.admits_connection()) return nullptr;
      auto socket = Socket::connect_to(ep.host, ep.port);
      if (!socket) return nullptr;
      return injector.wrap(std::make_unique<Socket>(std::move(*socket)));
    };
    const DownloadReport report =
        download_file(endpoints, secret, encoder.info(), options);

    EXPECT_EQ(report.success, expect_success)
        << "seed " << seed << ": survivors "
        << (expect_success ? "cover" : "do not cover") << " all " << k
        << " messages";
    if (report.success) {
      EXPECT_EQ(report.data, data) << "seed " << seed;
      ++successes;
    }
    assert_counter_partition(report, kPeers);
    for (auto& s : servers) s->stop();
  }
  // The scenario distribution must actually exercise both outcomes.
  EXPECT_GT(successes, 0);
  EXPECT_LT(successes, scenarios);
}

}  // namespace
}  // namespace fairshare::net
