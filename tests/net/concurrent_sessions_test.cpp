// Concurrent sessions on ONE PeerServer: several authenticated users are
// served simultaneously, and the pacing scheduler divides the server's
// uplink between them by Equation (2) — per-user rates proportional to the
// contribution ledgers, measured over real TCP.
//
// These are also the reactor's handshake/pacing/stop integration tests;
// tests/net/session_soak_test.cpp pushes the same assertions to 512-way
// concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "coding/encoder.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileId = 42;
const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};  // 1 KiB msgs

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

// A store with `count` coded messages of one 20 kB file (k = 20, so any 20
// of them decode; the tests below mostly count frames rather than decode).
p2p::MessageStore make_store(const coding::SecretKey& secret,
                             const std::vector<std::byte>& data,
                             std::size_t count) {
  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(count)) store.store(std::move(m));
  return store;
}

crypto::ChaCha20 rng_for(std::uint8_t tag) {
  std::array<std::uint8_t, 32> key{};
  key[0] = tag;
  std::array<std::uint8_t, 12> nonce{};
  return crypto::ChaCha20(key, nonce, 0);
}

// Client side of the Figure 4(b) handshake, by hand (the production path
// lives in download_client.cpp; here each session needs its own pacing
// observation window, so the frames are consumed raw).
bool handshake(Socket& socket, std::uint64_t user_id,
               const crypto::RsaKeyPair& user_key,
               const crypto::RsaPublicKey& peer_identity, std::uint64_t seed) {
  crypto::ChaCha20 rng = rng_for(static_cast<std::uint8_t>(seed));
  crypto::AuthInitiator initiator(user_id, user_key, peer_identity, rng);
  if (!send_frame(socket, p2p::wire::encode(initiator.hello()))) return false;
  const auto challenge_frame = recv_frame(socket, 1 << 16);
  if (!challenge_frame) return false;
  const auto challenge = p2p::wire::decode_auth_challenge(*challenge_frame);
  if (!challenge) return false;
  const auto response = initiator.on_challenge(*challenge);
  if (!response) return false;
  return send_frame(socket, p2p::wire::encode(*response));
}

bool send_request(Socket& socket, std::uint64_t user_id) {
  p2p::wire::FileRequest request;
  request.user_id = user_id;
  request.file_id = kFileId;
  return send_frame(socket, p2p::wire::encode(request));
}

void send_stop(Socket& socket, std::uint64_t user_id) {
  p2p::wire::StopTransmission stop;
  stop.user_id = user_id;
  stop.file_id = kFileId;
  (void)send_frame(socket, p2p::wire::encode(stop));
}

// Read coded frames until the peer closes (post-stop drain).
void drain(Socket& socket) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < deadline) {
    const auto frame = recv_frame(socket, 64 << 20);
    if (!frame && !socket.timed_out()) return;  // closed
  }
}

TEST(ConcurrentSessions, RatesFollowSeededContributionLedgers) {
  const auto data = blob(20000, 7);
  coding::SecretKey secret{};
  secret[0] = 9;

  crypto::ChaCha20 krng = rng_for(11);
  const crypto::RsaKeyPair peer_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_a = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_b = crypto::RsaKeyPair::generate(512, krng);

  PeerServer::Config config;
  config.require_auth = true;
  config.peer_id = 1;
  config.rate_kbps = 4000.0;  // mu_i, divided by Eq. (2) each quantum
  PeerServer server(config, make_store(secret, data, 900), peer_key);
  server.register_user(1, key_a.pub);
  server.register_user(2, key_b.pub);
  // User 1 has contributed 3x what user 2 has: Eq. (2) must grant 3:1.
  server.seed_contribution(1, 3e6);
  server.seed_contribution(2, 1e6);
  ASSERT_TRUE(server.start());

  constexpr auto kWindow = std::chrono::milliseconds(1000);
  std::latch request_gate(2);
  std::atomic<std::uint64_t> bytes_a{0}, bytes_b{0};
  std::atomic<bool> early_progress_a{false}, early_progress_b{false};
  std::atomic<int> failures{0};

  auto client = [&](std::uint64_t user_id, const crypto::RsaKeyPair& key,
                    std::atomic<std::uint64_t>& bytes,
                    std::atomic<bool>& early_progress) {
    auto socket = Socket::connect_to("127.0.0.1", server.port());
    if (!socket || !handshake(*socket, user_id, key, peer_key.pub, user_id)) {
      ++failures;
      request_gate.count_down();
      return;
    }
    socket->set_recv_timeout(20);
    request_gate.arrive_and_wait();  // both sessions stream simultaneously
    if (!send_request(*socket, user_id)) {
      ++failures;
      return;
    }
    const auto start = Clock::now();
    while (Clock::now() - start < kWindow) {
      const auto frame = recv_frame(*socket, 64 << 20);
      if (!frame) {
        if (socket->timed_out()) continue;
        ++failures;  // the store is big enough that EOF here is a bug
        return;
      }
      bytes += frame->size();
      if (Clock::now() - start < std::chrono::milliseconds(500))
        early_progress = true;
    }
    send_stop(*socket, user_id);
    drain(*socket);
  };

  std::thread ta(client, 1, std::cref(key_a), std::ref(bytes_a),
                 std::ref(early_progress_a));
  std::thread tb(client, 2, std::cref(key_b), std::ref(bytes_b),
                 std::ref(early_progress_b));

  // Mid-window, both sessions must be in flight at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(server.active_sessions(), 2u);

  ta.join();
  tb.join();
  ASSERT_EQ(failures.load(), 0);

  // Both users made progress immediately — neither waited for the other.
  EXPECT_TRUE(early_progress_a.load());
  EXPECT_TRUE(early_progress_b.load());
  EXPECT_GE(server.peak_sessions(), 2u);

  // Measured rates within 15% of the Eq. (2) split (3:1 of 4000 kbps).
  const double window_s =
      std::chrono::duration<double>(kWindow).count();
  const double kbps_a = bytes_a.load() * 8.0 / 1000.0 / window_s;
  const double kbps_b = bytes_b.load() * 8.0 / 1000.0 / window_s;
  EXPECT_NEAR(kbps_a / 3000.0, 1.0, 0.15) << "user 1 measured " << kbps_a;
  EXPECT_NEAR(kbps_b / 1000.0, 1.0, 0.15) << "user 2 measured " << kbps_b;

  // Server-side observability agrees with the client-side measurement.
  EXPECT_GE(server.user_bytes_sent(1), bytes_a.load());
  EXPECT_GE(server.user_bytes_sent(2), bytes_b.load());
  const auto snapshot = server.allocation_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  server.stop();
}

TEST(ConcurrentSessions, TwoFullDownloadsShareOneServer) {
  const auto data = blob(20000, 8);
  coding::SecretKey secret{};
  secret[0] = 10;

  crypto::ChaCha20 krng = rng_for(12);
  const crypto::RsaKeyPair peer_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_a = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_b = crypto::RsaKeyPair::generate(512, krng);

  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(60)) store.store(std::move(m));
  const coding::FileInfo info = encoder.info();  // digests cover the store

  PeerServer::Config config;
  config.require_auth = true;
  config.peer_id = 2;
  config.rate_kbps = 2000.0;
  PeerServer server(config, std::move(store), peer_key);
  server.register_user(1, key_a.pub);
  server.register_user(2, key_b.pub);
  ASSERT_TRUE(server.start());

  PeerEndpoint endpoint;
  endpoint.port = server.port();
  endpoint.peer_id = 2;
  endpoint.identity = peer_key.pub;

  DownloadReport report_a, report_b;
  std::thread ta([&] {
    DownloadOptions options;
    options.user_id = 1;
    options.user_key = &key_a;
    report_a = download_file({endpoint}, secret, info, options);
  });
  std::thread tb([&] {
    DownloadOptions options;
    options.user_id = 2;
    options.user_key = &key_b;
    report_b = download_file({endpoint}, secret, info, options);
  });
  ta.join();
  tb.join();

  EXPECT_TRUE(report_a.success);
  EXPECT_TRUE(report_b.success);
  EXPECT_EQ(report_a.data, data);
  EXPECT_EQ(report_b.data, data);
  // The old server served one session at a time; now both were in flight.
  EXPECT_GE(server.peak_sessions(), 2u);
  EXPECT_EQ(server.auth_rejections(), 0u);
  server.stop();
}

TEST(ConcurrentSessions, StopFrameHaltsPacedStreamMidFile) {
  const auto data = blob(20000, 9);
  coding::SecretKey secret{};
  secret[0] = 11;

  PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = 800.0;  // ~2 s to drain the whole store
  PeerServer server(config, make_store(secret, data, 200));
  ASSERT_TRUE(server.start());

  auto socket = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(socket.has_value());
  socket->set_recv_timeout(100);
  ASSERT_TRUE(send_request(*socket, 5));
  for (int i = 0; i < 5; ++i) {
    std::optional<std::vector<std::byte>> frame;
    do {
      frame = recv_frame(*socket, 64 << 20);
    } while (!frame && socket->timed_out());
    ASSERT_TRUE(frame.has_value()) << "stream ended before frame " << i;
  }
  send_stop(*socket, 5);
  drain(*socket);

  // The server must notice the stop promptly, well short of the file end.
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (server.sessions_completed() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.sessions_completed(), 1u);
  EXPECT_GE(server.messages_sent(), 5u);
  EXPECT_LT(server.messages_sent(), 100u);
  server.stop();
}

TEST(ConcurrentSessions, MaxSessionsBoundRejectsExtraConnections) {
  const auto data = blob(20000, 10);
  coding::SecretKey secret{};
  secret[0] = 12;

  PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = 500.0;
  config.max_sessions = 1;
  PeerServer server(config, make_store(secret, data, 200));
  ASSERT_TRUE(server.start());

  auto first = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(first.has_value());
  first->set_recv_timeout(100);
  ASSERT_TRUE(send_request(*first, 1));
  std::optional<std::vector<std::byte>> frame;
  do {
    frame = recv_frame(*first, 64 << 20);
  } while (!frame && first->timed_out());
  ASSERT_TRUE(frame.has_value());  // session 1 is mid-stream

  auto second = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(second.has_value());  // TCP accept queue takes it...
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (server.sessions_rejected() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.sessions_rejected(), 1u);  // ...but the server drops it

  send_stop(*first, 1);
  drain(*first);
  server.stop();
}

}  // namespace
}  // namespace fairshare::net
