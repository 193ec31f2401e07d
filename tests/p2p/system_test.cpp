// End-to-end integration of the full system: dissemination, authenticated
// multi-peer download, aggregation beating the owner's upload capacity,
// and adversaries.
#include <gtest/gtest.h>

#include <vector>

#include "p2p/system.hpp"
#include "sim/rng.hpp"

namespace fairshare::p2p {
namespace {

std::vector<std::byte> random_data(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

// Small payloads keep the protocol tests quick: 64 symbols of GF(2^32)
// = 256 B messages.
const coding::CodingParams kParams{gf::FieldId::gf2_32, 64};

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.auth = AuthMode::disabled;
  cfg.handshake_slots = 0;
  return cfg;
}

std::vector<PeerParams> uniform_peers(std::size_t n, double kbps) {
  std::vector<PeerParams> peers(n);
  for (auto& p : peers) p.upload_kbps = kbps;
  return peers;
}

TEST(P2PSystem, DisseminationFillsPeerStores) {
  System sys(uniform_peers(4, 256), fast_config());
  const auto data = random_data(4096, 1);
  sys.share_file(0, 1, data, kParams);  // k = 16 chunks of 256 B
  EXPECT_LT(sys.dissemination_progress(1), 1.0);
  sys.run(2000);
  EXPECT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);
  const std::size_t k = coding::chunks_for_bytes(data.size(), kParams);
  for (PeerId p = 1; p < 4; ++p) {
    EXPECT_EQ(sys.stored_messages(p, 1), k) << "peer " << p;
    EXPECT_EQ(sys.store_bytes(p), k * kParams.message_bytes());
  }
  EXPECT_EQ(sys.stored_messages(0, 1), 0u);  // owner keeps the plain file
}

TEST(P2PSystem, DisseminationRespectsUploadCapacity) {
  // 3 peers get k=16 messages of 272 B each: 16*2*272*8/1000 kb ~ 69.6 kb
  // at 256 kbps -> takes at least ceil(69.6/0.256)/1000... i.e. > 0 slots;
  // check monotone progress bounded by capacity.
  System sys(uniform_peers(3, 256), fast_config());
  const auto data = random_data(4096, 2);
  sys.share_file(0, 1, data, kParams);
  double last = 0.0;
  for (int t = 0; t < 50; ++t) {
    sys.step();
    const double now = sys.dissemination_progress(1);
    EXPECT_GE(now, last);
    last = now;
  }
  // At 16 kbps the ~70 kb of queued messages need several slots: after
  // one slot dissemination must NOT be done, and progress per slot is
  // bounded by capacity.
  System sys2(uniform_peers(3, 16), fast_config());
  sys2.share_file(0, 1, data, kParams);
  sys2.step();
  EXPECT_LT(sys2.dissemination_progress(1), 1.0);
}

TEST(P2PSystem, DownloadReconstructsExactFile) {
  System sys(uniform_peers(4, 512), fast_config());
  const auto data = random_data(10000, 3);
  sys.share_file(0, 7, data, kParams);
  sys.run(500);  // let dissemination finish
  const auto req = sys.request_file(0, 7, 100000);
  ASSERT_TRUE(sys.run_until_complete(req, 5000));
  EXPECT_EQ(sys.data(req), data);
  EXPECT_EQ(sys.stats(req).messages_bad_digest, 0u);
}

TEST(P2PSystem, AggregationBeatsOwnersUploadCapacity) {
  // The headline claim: with 5 peers serving, the user's download rate
  // exceeds the home link's upload capacity.  Use a 1 MB file with 16 KiB
  // messages (k = 64) so the transfer spans several slots and the rate is
  // measurable.
  const coding::CodingParams big{gf::FieldId::gf2_32, 4096};
  System sys(uniform_peers(6, 256), fast_config());
  const auto data = random_data(1u << 20, 4);
  sys.share_file(0, 1, data, big);
  sys.run(30000);  // disseminate fully: 5 peers x 64 msgs x ~131 kb
  ASSERT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);

  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 5000));
  const auto& stats = sys.stats(req);
  const std::uint64_t duration = stats.completed_slot - stats.started_slot;
  const double avg_kbps =
      static_cast<double>(data.size()) * 8.0 / 1000.0 /
      static_cast<double>(duration);
  // Owner alone uploads at 256 kbps; the swarm should noticeably beat it.
  EXPECT_GT(avg_kbps, 2.0 * 256.0);
  EXPECT_EQ(sys.data(req), data);
}

TEST(P2PSystem, ClientServerFallbackBeforeDissemination) {
  // "The file contents are always still available directly from peer u
  // ... during the initialization phase."
  System sys(uniform_peers(3, 256), fast_config());
  const auto data = random_data(4096, 5);
  sys.share_file(0, 1, data, kParams);
  // Request immediately; only the owner can serve.
  const auto req = sys.request_file(1, 1, 100000);
  ASSERT_TRUE(sys.run_until_complete(req, 10000));
  EXPECT_EQ(sys.data(req), data);
}

TEST(P2PSystem, StopsAtExactlyKInnovativeMessages) {
  System sys(uniform_peers(4, 1024), fast_config());
  const auto data = random_data(8192, 6);
  const std::size_t k = coding::chunks_for_bytes(data.size(), kParams);
  sys.share_file(0, 1, data, kParams);
  sys.run(1000);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 5000));
  EXPECT_EQ(sys.stats(req).messages_accepted, k);
}

TEST(P2PSystem, TamperingPeerIsNeutralizedByDigests) {
  // Peer 0 serves corrupted payloads.  Peers are served in id order within
  // a slot, so with the owner at index 3 the tamperer's messages reach the
  // decoder first, are all rejected by the MD5 check, and the honest peers
  // plus the owner cover the shortfall.
  auto peers = uniform_peers(4, 512);
  peers[0].tampers = true;
  System sys(std::move(peers), fast_config());
  const auto data = random_data(8192, 7);
  sys.share_file(3, 1, data, kParams);
  sys.run(2000);
  const auto req = sys.request_file(3, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 10000));
  EXPECT_EQ(sys.data(req), data);  // still correct
  EXPECT_GT(sys.stats(req).messages_bad_digest, 0u);  // and detected
}

TEST(P2PSystem, StorageLimitedPeersStillDecodeViaOthers) {
  // k' < k mode: peers hold fewer than k messages; the union suffices.
  auto peers = uniform_peers(4, 512);
  const auto data = random_data(8192, 8);
  const std::size_t k = coding::chunks_for_bytes(data.size(), kParams);
  for (auto& p : peers) p.store_limit_per_file = k / 2;
  System sys(std::move(peers), fast_config());
  sys.share_file(0, 1, data, kParams);
  sys.run(2000);
  for (PeerId p = 1; p < 4; ++p)
    EXPECT_EQ(sys.stored_messages(p, 1), k / 2);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 10000));
  EXPECT_EQ(sys.data(req), data);
}

TEST(P2PSystem, DownloadCapThrottlesAggregation) {
  System sys(uniform_peers(5, 1000), fast_config());
  const auto data = random_data(16384, 9);
  sys.share_file(0, 1, data, kParams);
  sys.run(2000);
  const double cap = 500.0;  // below a single peer's upload
  const auto req = sys.request_file(0, 1, cap);
  ASSERT_TRUE(sys.run_until_complete(req, 20000));
  // No slot may exceed the user's download capacity.
  const auto& trace = sys.download_trace(0);
  for (std::size_t t = 0; t < trace.size(); ++t)
    EXPECT_LE(trace.at(t), cap + 1e-6) << "slot " << t;
}

TEST(P2PSystem, AuthenticatedSessionsWork) {
  SystemConfig cfg;
  cfg.auth = AuthMode::full;
  cfg.rsa_bits = 512;
  cfg.handshake_slots = 2;
  System sys(uniform_peers(3, 1024), cfg);
  const auto data = random_data(4096, 10);
  sys.share_file(0, 1, data, kParams);
  sys.run(500);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 5000));
  EXPECT_EQ(sys.data(req), data);
  EXPECT_EQ(sys.stats(req).auth_failures, 0u);
}

TEST(P2PSystem, ImpersonatingPeerFailsHandshakeAndServesNothing) {
  SystemConfig cfg;
  cfg.auth = AuthMode::full;
  cfg.rsa_bits = 512;
  auto peers = uniform_peers(3, 1024);
  peers[2].impersonates = true;
  System sys(std::move(peers), cfg);
  const auto data = random_data(4096, 11);
  sys.share_file(0, 1, data, kParams);
  sys.run(500);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 10000));
  EXPECT_EQ(sys.data(req), data);  // others cover the shortfall
  EXPECT_EQ(sys.stats(req).auth_failures, 1u);
}

TEST(P2PSystem, MultipleFilesCoexist) {
  System sys(uniform_peers(3, 1024), fast_config());
  const auto data_a = random_data(4096, 12);
  const auto data_b = random_data(6000, 13);
  sys.share_file(0, 1, data_a, kParams);
  sys.share_file(1, 2, data_b, kParams);
  sys.run(3000);
  const auto req_a = sys.request_file(0, 1, 1e9);
  const auto req_b = sys.request_file(1, 2, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req_a, 5000));
  ASSERT_TRUE(sys.run_until_complete(req_b, 5000));
  EXPECT_EQ(sys.data(req_a), data_a);
  EXPECT_EQ(sys.data(req_b), data_b);
}

TEST(P2PSystem, SequentialRequestsBySameUser) {
  System sys(uniform_peers(3, 1024), fast_config());
  const auto data = random_data(4096, 14);
  sys.share_file(0, 1, data, kParams);
  sys.run(1000);
  const auto r1 = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(r1, 5000));
  const auto r2 = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(r2, 5000));
  EXPECT_EQ(sys.data(r2), data);
}

TEST(P2PSystem, LossyLinksRetransmitUntilComplete) {
  auto peers = uniform_peers(4, 512);
  for (auto& p : peers) p.loss_rate = 0.4;  // brutal links everywhere
  System sys(std::move(peers), fast_config());
  const auto data = random_data(8192, 20);
  sys.share_file(0, 1, data, kParams);
  sys.run(2000);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 20000));
  EXPECT_EQ(sys.data(req), data);
  EXPECT_GT(sys.stats(req).messages_lost, 0u);
}

TEST(P2PSystem, LossSlowsButDoesNotCorrupt) {
  // Sized so the clean transfer spans several slots (k=256 messages at
  // 4 x 64 kbps), making the retransmission cost measurable.
  const auto data = random_data(65536, 21);
  auto run_with_loss = [&](double loss) {
    auto peers = uniform_peers(4, 64);
    for (auto& p : peers) p.loss_rate = loss;
    System sys(std::move(peers), fast_config());
    sys.share_file(0, 1, data, kParams);
    sys.run(4000);
    const auto req = sys.request_file(0, 1, 1e9);
    EXPECT_TRUE(sys.run_until_complete(req, 50000));
    EXPECT_EQ(sys.data(req), data);
    return sys.stats(req).completed_slot - sys.stats(req).started_slot;
  };
  const auto clean = run_with_loss(0.0);
  const auto lossy = run_with_loss(0.5);
  EXPECT_GT(lossy, clean);  // retransmissions cost real time
}

TEST(P2PSystem, TotallyLossyPeerIsCoveredByOthers) {
  auto peers = uniform_peers(4, 512);
  peers[1].loss_rate = 1.0;  // black-holes everything it serves
  System sys(std::move(peers), fast_config());
  const auto data = random_data(8192, 22);
  sys.share_file(0, 1, data, kParams);
  sys.run(2000);
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 50000));
  EXPECT_EQ(sys.data(req), data);
}

TEST(P2PSystem, DhtSelectsOnlyPeersHoldingContent) {
  System sys(uniform_peers(5, 512), fast_config());
  const auto data = random_data(4096, 30);
  sys.share_file(0, 1, data, kParams);

  // Before any dissemination only the owner is contacted...
  const auto early = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(early, 10000));
  EXPECT_EQ(sys.stats(early).peers_contacted, 1u);
  EXPECT_EQ(sys.data(early), data);

  // ...after full dissemination the DHT reports all four holders.
  sys.run(2000);
  ASSERT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);
  const auto late = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(late, 10000));
  EXPECT_EQ(sys.stats(late).peers_contacted, 5u);  // 4 holders + owner
}

TEST(P2PSystem, DhtLookupCostIsReported) {
  System sys(uniform_peers(8, 512), fast_config());
  const auto data = random_data(4096, 31);
  sys.share_file(2, 9, data, kParams);
  sys.run(2000);
  const auto req = sys.request_file(2, 9, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 10000));
  // Hop count is environment-dependent but must stay logarithmic-small.
  EXPECT_LE(sys.stats(req).locate_hops, 8u);
}

TEST(P2PSystem, ConcurrentDownloadsShareUploadByCredit) {
  // Two users pull different files at once; every transfer completes and
  // the per-slot download of each user never exceeds total system upload.
  System sys(uniform_peers(4, 512), fast_config());
  const auto data_a = random_data(16384, 40);
  const auto data_b = random_data(16384, 41);
  sys.share_file(0, 1, data_a, kParams);
  sys.share_file(1, 2, data_b, kParams);
  sys.run(4000);
  const auto ra = sys.request_file(0, 1, 1e9);
  const auto rb = sys.request_file(1, 2, 1e9);
  for (int i = 0; i < 20000 && !(sys.complete(ra) && sys.complete(rb)); ++i)
    sys.step();
  ASSERT_TRUE(sys.complete(ra));
  ASSERT_TRUE(sys.complete(rb));
  EXPECT_EQ(sys.data(ra), data_a);
  EXPECT_EQ(sys.data(rb), data_b);
  const auto& ta = sys.download_trace(0);
  for (std::size_t t = 0; t < ta.size(); ++t)
    EXPECT_LE(ta.at(t), 4 * 512.0 + 1e-6);
}

TEST(P2PSystem, DownloadSurvivesPeerGoingOffline) {
  System sys(uniform_peers(5, 64), fast_config());
  const auto data = random_data(32768, 50);  // k=128: several slots of work
  sys.share_file(0, 1, data, kParams);
  sys.run(20000);
  ASSERT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);

  const auto req = sys.request_file(0, 1, 1e9);
  sys.run(3);                    // transfer under way
  sys.set_online(2, false);      // a holder disappears mid-download
  ASSERT_TRUE(sys.run_until_complete(req, 50000));
  EXPECT_EQ(sys.data(req), data);
}

TEST(P2PSystem, OfflinePeerServesNothingUntilReturn) {
  System sys(uniform_peers(3, 256), fast_config());
  const auto data = random_data(8192, 51);
  sys.share_file(0, 1, data, kParams);
  sys.set_online(1, false);
  sys.set_online(2, false);
  sys.run(100);
  // Dissemination cannot proceed with every target offline.
  EXPECT_LT(sys.dissemination_progress(1), 1.0);
  EXPECT_EQ(sys.stored_messages(1, 1), 0u);
  sys.set_online(1, true);
  sys.set_online(2, true);
  sys.run(5000);
  EXPECT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);
}

TEST(P2PSystem, OfflineOwnerStillServedByPeers) {
  // The remote-access story: the home computer is off, yet the user
  // restores the file from the disseminated coded copies.
  System sys(uniform_peers(4, 512), fast_config());
  const auto data = random_data(8192, 52);
  sys.share_file(0, 1, data, kParams);
  sys.run(2000);
  ASSERT_DOUBLE_EQ(sys.dissemination_progress(1), 1.0);
  sys.set_online(0, false);  // owner's machine powered down
  const auto req = sys.request_file(0, 1, 1e9);
  ASSERT_TRUE(sys.run_until_complete(req, 20000));
  EXPECT_EQ(sys.data(req), data);
}

}  // namespace
}  // namespace fairshare::p2p
