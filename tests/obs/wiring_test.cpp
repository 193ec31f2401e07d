// The obs subsystem wired through the real stack: PeerServer +
// download_file over TCP report into one registry whose numbers equal the
// returned DownloadReport exactly; allocation_snapshot() stays coherent
// under concurrent hammering (run under TSan via the obs ctest label);
// decoder and simulator instrumentation round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "alloc/policies.hpp"
#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace fairshare {
namespace {

constexpr std::uint64_t kFileId = 77;
const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};  // 1 KiB msgs

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

std::uint64_t counter_value(const obs::RegistrySnapshot& snap,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters)
    if (c.name == name) total += c.value;
  return total;
}

TEST(ObsWiring, RegistryMatchesDownloadReportOverTcp) {
  const auto data = blob(20000, 21);
  coding::SecretKey secret{};
  secret[0] = 3;
  coding::FileEncoder encoder(secret, kFileId, data, kParams);

  obs::MetricsRegistry registry;
  const std::string dump_path = "obs_wiring_server_stats.json";
  std::remove(dump_path.c_str());

  std::vector<std::unique_ptr<net::PeerServer>> servers;
  std::vector<net::PeerEndpoint> endpoints;
  for (std::uint64_t p = 0; p < 3; ++p) {
    p2p::MessageStore store;
    for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
    net::PeerServer::Config config;
    config.peer_id = p;
    config.require_auth = false;
    config.rate_kbps = 4000.0;
    config.registry = &registry;
    if (p == 0) config.stats_json_path = dump_path;
    auto server = std::make_unique<net::PeerServer>(config, std::move(store));
    ASSERT_TRUE(server->start());
    net::PeerEndpoint ep;
    ep.port = server->port();
    ep.peer_id = p;
    endpoints.push_back(ep);
    servers.push_back(std::move(server));
  }

  net::DownloadOptions options;
  options.user_id = 9;
  options.registry = &registry;
  const net::DownloadReport report =
      net::download_file(endpoints, secret, encoder.info(), options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, data);

  // Each event was counted once, in its peer's report row, and the row was
  // added to the client series when that peer's session thread ended, so
  // every series equals its row EXACTLY, per peer and in total.
  const obs::RegistrySnapshot snap = registry.snapshot();
  std::uint64_t report_frames = 0;
  for (const net::PeerDownloadStats& ps : report.per_peer) {
    const obs::LabelList labels = {{"peer", std::to_string(ps.peer_id)},
                                   {"user", "9"}};
    EXPECT_EQ(registry.counter("fairshare_client_attempts_total", labels)
                  .value(),
              ps.attempts);
    EXPECT_EQ(registry.counter("fairshare_client_retries_total", labels)
                  .value(),
              ps.sessions_retried);
    EXPECT_EQ(registry.counter("fairshare_client_frames_total", labels)
                  .value(),
              ps.frames_received);
    EXPECT_EQ(
        registry.counter("fairshare_client_frames_corrupt_total", labels)
            .value(),
        ps.frames_corrupt);
    EXPECT_EQ(
        registry.counter("fairshare_client_bytes_received_total", labels)
            .value(),
        ps.bytes_received);
    EXPECT_EQ(
        registry
            .counter("fairshare_client_messages_innovative_total", labels)
            .value(),
        ps.messages_accepted);
    EXPECT_EQ(
        registry.counter("fairshare_client_messages_redundant_total", labels)
            .value(),
        ps.messages_redundant);
    EXPECT_EQ(
        registry.counter("fairshare_client_messages_rejected_total", labels)
            .value(),
        ps.messages_rejected);
    report_frames +=
        registry.counter("fairshare_client_frames_total", labels).value();
  }
  EXPECT_EQ(registry.counter_total("fairshare_client_bytes_received_total"),
            report.bytes_received);
  EXPECT_GT(report_frames, 0u);
  // Innovative-vs-redundant ratio is derivable and the innovative count is
  // the decode threshold k by construction.
  EXPECT_EQ(
      registry.counter_total("fairshare_client_messages_innovative_total"),
      report.messages_accepted);

  // Decoder instrumentation rode along via download_file.
  EXPECT_GT(counter_value(snap, "fairshare_client_frames_total"), 0u);
  bool saw_rank_gauge = false;
  for (const auto& g : snap.gauges)
    if (g.name == "fairshare_decoder_rank") {
      saw_rank_gauge = true;
      EXPECT_EQ(g.value, static_cast<double>(encoder.k()));
    }
  EXPECT_TRUE(saw_rank_gauge);

  // Server side: per-user byte counters equal the accessor exactly, and
  // the session span made it into the ring.
  for (std::uint64_t p = 0; p < servers.size(); ++p) {
    const obs::LabelList labels = {{"peer", std::to_string(p)},
                                   {"user", "9"}};
    EXPECT_EQ(
        registry.counter("fairshare_server_user_bytes_total", labels).value(),
        servers[p]->user_bytes_sent(9));
  }
  bool saw_session_span = false, saw_download_span = false;
  for (const obs::SpanRecord& rec : registry.spans().snapshot()) {
    if (std::string_view(rec.name) == "server.session") saw_session_span = true;
    if (std::string_view(rec.name) == "client.download")
      saw_download_span = true;
  }
  EXPECT_TRUE(saw_session_span);
  EXPECT_TRUE(saw_download_span);

  // stop() writes the at-exit JSON dump for peer 0.
  for (auto& s : servers) s->stop();
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "missing " << dump_path;
  std::ostringstream body;
  body << dump.rdbuf();
  EXPECT_NE(body.str().find("fairshare_server_user_bytes_total"),
            std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(ObsWiring, AllocationSnapshotCoherentUnderConcurrentSessions) {
  const auto data = blob(20000, 22);
  coding::SecretKey secret{};
  secret[0] = 4;
  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(400)) store.store(std::move(m));

  obs::MetricsRegistry registry;
  net::PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = 3000.0;
  config.max_sessions = 8;
  config.registry = &registry;
  net::PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  net::PeerEndpoint endpoint;
  endpoint.port = server.port();

  // Three users download concurrently while a hammer thread snapshots the
  // allocation state as fast as it can.  Under TSan this is the
  // data-race proof; the invariant checks below pin coherence: per-user
  // bytes are monotone across successive snapshots (a torn copy would
  // break that), and session counts never exceed the configured bound.
  std::atomic<bool> stop_hammer{false};
  std::atomic<int> violations{0};
  std::thread hammer([&] {
    std::vector<std::uint64_t> last_bytes(8, 0);
    while (!stop_hammer.load()) {
      const auto snap = server.allocation_snapshot();
      std::size_t sessions = 0;
      for (std::size_t i = 0; i < snap.size(); ++i) {
        if (i < last_bytes.size()) {
          if (snap[i].bytes_sent < last_bytes[i]) ++violations;
          last_bytes[i] = snap[i].bytes_sent;
        }
        sessions += snap[i].active_sessions;
        if (snap[i].rate_kbps < 0.0) ++violations;
      }
      if (sessions > config.max_sessions) ++violations;
    }
  });

  std::vector<std::thread> clients;
  std::vector<net::DownloadReport> reports(3);
  for (std::uint64_t u = 0; u < 3; ++u)
    clients.emplace_back([&, u] {
      net::DownloadOptions options;
      options.user_id = u + 1;
      options.registry = &registry;
      reports[u] =
          net::download_file({endpoint}, secret, encoder.info(), options);
    });
  for (auto& t : clients) t.join();
  stop_hammer = true;
  hammer.join();

  for (const auto& report : reports) EXPECT_TRUE(report.success);
  EXPECT_EQ(violations.load(), 0);
  // The clients have returned but each server-side handler still drains
  // its stop frame; wait for the session registry to empty out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (server.active_sessions() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto final_snap = server.allocation_snapshot();
  EXPECT_EQ(final_snap.size(), 3u);
  for (const auto& share : final_snap) {
    EXPECT_GT(share.bytes_sent, 0u);
    EXPECT_EQ(share.active_sessions, 0u);  // all sessions drained
  }
  server.stop();
}

TEST(ObsWiring, DecoderMetricsTrackRankAndEliminations) {
  const auto data = blob(8000, 23);
  coding::SecretKey secret{};
  secret[0] = 5;
  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  obs::MetricsRegistry registry;
  const auto messages = encoder.generate(encoder.k() + 2);
  coding::CodecDecoder decoder(secret, encoder.info());  // digests cover all
  decoder.enable_metrics(registry, /*user_id=*/4);
  std::size_t added = 0;
  for (const auto& msg : messages) {
    decoder.add(msg);
    ++added;
  }
  ASSERT_TRUE(decoder.complete());
  const obs::LabelList labels = {{"file", std::to_string(kFileId)},
                                 {"user", "4"},
                                 {"codec", "dense"}};
  EXPECT_EQ(registry.gauge("fairshare_decoder_rank", labels).value(),
            static_cast<double>(decoder.rank()));
  // One elimination per add that reached the solver; adds arriving after
  // completion short-circuit (already_complete) and are not timed.
  const std::uint64_t eliminations =
      registry.histogram("fairshare_decoder_eliminate_ns", labels).count();
  EXPECT_GE(eliminations, decoder.rank());
  EXPECT_LE(eliminations, added);
  // The payload product is timed apart, one sample per strip, once the
  // file is rebuilt; a second solve() finds no strip left to time.
  obs::Histogram& solve_ns =
      registry.histogram("fairshare_decoder_solve_ns", labels);
  EXPECT_EQ(solve_ns.count(), 0u);
  EXPECT_EQ(decoder.reconstruct(), data);
  const std::uint64_t strips = solve_ns.count();
  EXPECT_GE(strips, 1u);
  EXPECT_GT(solve_ns.snapshot().sum, 0u);
  decoder.solve();
  EXPECT_EQ(solve_ns.count(), strips);
}

TEST(ObsWiring, SimulatorBridgesIntoRegistry) {
  obs::MetricsRegistry registry;
  std::vector<sim::PeerSetup> peers;
  for (double u : {100.0, 300.0}) {
    sim::PeerSetup p;
    p.upload_kbps = u;
    p.demand = std::make_shared<sim::AlwaysDemand>();
    p.policy = std::make_shared<alloc::ProportionalContributionPolicy>(2);
    peers.push_back(std::move(p));
  }
  sim::SimConfig config;
  config.registry = &registry;
  sim::Simulator simulator(std::move(peers), config);
  simulator.run(25);
  EXPECT_EQ(registry.counter_total("fairshare_sim_slots_total"), 25u);
  bool saw_slot_span = false;
  for (const obs::SpanRecord& rec : registry.spans().snapshot())
    if (std::string_view(rec.name) == "sim.slot") saw_slot_span = true;
  EXPECT_TRUE(saw_slot_span);

  sim::publish_metrics(simulator, registry);
  EXPECT_EQ(registry.gauge("fairshare_sim_slots").value(), 25.0);
  const double jain = registry.gauge("fairshare_sim_jain").value();
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0);
  for (std::size_t u = 0; u < 2; ++u) {
    const obs::LabelList labels = {{"user", std::to_string(u)}};
    EXPECT_GT(
        registry.gauge("fairshare_sim_avg_download_kbps", labels).value(),
        0.0);
  }
}

}  // namespace
}  // namespace fairshare
