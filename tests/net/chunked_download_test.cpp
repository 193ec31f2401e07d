// End-to-end chunked downloads: a chunked FileInfo selects the
// overlapping-class decoder inside download_file, and the file arrives
// intact over the reactor's zero-copy scatter-gather serve path, from a
// verbatim store and from three servers whose sessions feed the one
// decoder at once.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "coding/chunked.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

constexpr std::uint64_t kFileId = 42;

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

coding::ChunkedSchedule small_classes() {
  coding::ChunkedSchedule s;
  s.class_size = 16;
  s.overlap = 4;
  s.seed = 11;
  return s;
}

struct Fixture {
  coding::SecretKey secret{};
  std::vector<std::byte> data;
  coding::CodingParams params{gf::FieldId::gf2_32, 256};  // 1 KiB chunks
  std::unique_ptr<coding::chunked::Encoder> encoder;

  Fixture() {
    secret[0] = 33;
    data = blob(100000, 0xBEEF);  // k = 98, several classes
    encoder = std::make_unique<coding::chunked::Encoder>(
        secret, kFileId, data, params, small_classes());
  }
};

DownloadReport download_from(PeerServer& server,
                             const coding::SecretKey& secret,
                             const coding::FileInfo& info,
                             obs::MetricsRegistry* registry) {
  PeerEndpoint ep;
  ep.port = server.port();
  DownloadOptions options;
  options.user_id = 9;
  options.registry = registry;
  return download_file({ep}, secret, info, options);
}

TEST(ChunkedDownload, VerbatimStoreDecodesWithZeroOverhead) {
  Fixture fx;
  ASSERT_EQ(fx.encoder->info().codec, coding::CodecKind::chunked);
  const auto pool = fx.encoder->generate(fx.encoder->k());
  const coding::FileInfo info = fx.encoder->info();
  const std::size_t classes = fx.encoder->class_map().classes();
  ASSERT_GT(classes, 2u);

  p2p::MessageStore store;
  for (const auto& m : pool) store.store(coding::EncodedMessage(m));
  PeerServer::Config config;
  config.require_auth = false;
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  obs::MetricsRegistry registry;
  const DownloadReport report =
      download_from(server, fx.secret, info, &registry);
  server.stop();

  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, fx.data);
  // The quota-scheduled in-order stream decodes with zero overhead.
  EXPECT_EQ(report.messages_accepted, fx.encoder->k());

  // The chunked decoder reported through the per-download registry: the
  // cascade completed every class, and the rank series carries the
  // codec="chunked" label.
  EXPECT_EQ(
      registry.counter_total("fairshare_chunked_classes_complete_total"),
      classes);
  bool saw_chunked_rank = false;
  for (const auto& g : registry.snapshot().gauges) {
    if (g.name != "fairshare_decoder_rank") continue;
    for (const auto& [key, value] : g.labels)
      if (key == "codec") saw_chunked_rank = value == "chunked";
    EXPECT_GE(g.value, static_cast<double>(fx.encoder->k()));
  }
  EXPECT_TRUE(saw_chunked_rank);
}

TEST(ChunkedDownload, ThreeServersFeedOneDecoderConcurrently) {
  // Each server holds a distinct k-message share of one multi-class file,
  // so the three sessions' messages land in every class and the sessions
  // verify and eliminate side by side, with no client-side decoder lock.
  // The unpaced servers push their shares ahead of the client, so each
  // session mostly finds frames already queued after a receive and hands
  // them to the decoder as batches (most runs include full 16-frame ones);
  // the calling thread then solves beside the sessions.
  Fixture fx;
  constexpr std::size_t kServers = 3;
  const std::size_t k = fx.encoder->k();
  const auto pool = fx.encoder->generate(kServers * k);
  const coding::FileInfo info = fx.encoder->info();
  ASSERT_GT(fx.encoder->class_map().classes(), 2u);

  std::vector<std::unique_ptr<PeerServer>> servers;
  std::vector<PeerEndpoint> peers;
  for (std::size_t s = 0; s < kServers; ++s) {
    p2p::MessageStore store;
    for (std::size_t i = s * k; i < (s + 1) * k; ++i)
      store.store(coding::EncodedMessage(pool[i]));
    PeerServer::Config config;
    config.require_auth = false;
    servers.push_back(std::make_unique<PeerServer>(config, std::move(store)));
    ASSERT_TRUE(servers.back()->start());
    PeerEndpoint ep;
    ep.port = servers.back()->port();
    ep.peer_id = s + 1;
    peers.push_back(ep);
  }

  obs::MetricsRegistry registry;
  DownloadOptions options;
  options.user_id = 9;
  options.registry = &registry;
  const DownloadReport report =
      download_file(peers, fx.secret, info, options);
  for (auto& server : servers) server->stop();

  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, fx.data);
  ASSERT_EQ(report.per_peer.size(), kServers);
  std::size_t per_peer_accepted = 0;
  for (const PeerDownloadStats& ps : report.per_peer)
    per_peer_accepted += ps.messages_accepted;
  EXPECT_EQ(report.messages_accepted, per_peer_accepted);
  EXPECT_GE(report.messages_accepted, k);
  EXPECT_EQ(report.messages_rejected, 0u);
  EXPECT_EQ(
      registry.counter_total("fairshare_client_messages_innovative_total"),
      report.messages_accepted);
  // The sessions and the caller ran the payload product.
  const obs::LabelList labels = {{"file", std::to_string(info.file_id)},
                                 {"user", "9"},
                                 {"codec", "chunked"}};
  EXPECT_GE(registry.histogram("fairshare_decoder_solve_ns", labels).count(),
            1u);
}

}  // namespace
}  // namespace fairshare::net
