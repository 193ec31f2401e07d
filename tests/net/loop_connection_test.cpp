// The reactor's parking rule, pinned on PeerServer: while a fault-delayed
// transport waits on time rather than on fd readiness, its fd must leave
// the epoll set and one release timer must own the wakeup.  A connection
// that stayed registered would spin the level-triggered loop for the
// whole delay (tens of thousands of wakeups per delayed frame), yet the
// stream would still arrive intact — so this test counts the serving
// loop's wakeups, which is the only place the difference shows.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coding/encoder.hpp"
#include "net/fault_transport.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

constexpr std::uint64_t kFileId = 42;
constexpr std::uint64_t kPeerId = 5;

/// Loop wakeups allowed per delayed frame: one release timer, the pump it
/// runs, and the readiness events around it fit many times over; a
/// spinning loop overshoots by three orders of magnitude.
constexpr std::uint64_t kWakeupsPerDelayedFrame = 10;

TEST(LoopConnection, ServerParksDelayedStreamOnReleaseTimer) {
  sim::SplitMix64 rng(7);
  std::vector<std::byte> data(2000);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 3;
  coding::FileEncoder encoder(secret, kFileId, data,
                              coding::CodingParams{gf::FieldId::gf2_16, 256});
  const auto pool = encoder.generate(encoder.k());
  p2p::MessageStore store;
  for (const auto& m : pool) store.store(coding::EncodedMessage(m));

  FaultPlan plan;
  plan.seed = 9;
  plan.delay_rate = 1.0;
  plan.delay_ms = 50;
  auto injector = std::make_shared<FaultInjector>(plan);
  obs::MetricsRegistry registry;
  PeerServer::Config config;
  config.require_auth = false;
  config.peer_id = kPeerId;
  config.registry = &registry;
  config.transport_wrapper = [injector](std::unique_ptr<Transport> inner) {
    return injector->wrap(std::move(inner));
  };
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  // Unpaced: the whole store streams, every frame held back 50 ms.
  std::vector<std::vector<std::byte>> frames;
  {
    auto client = Socket::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(client);
    p2p::wire::FileRequest request;
    request.user_id = 1;
    request.file_id = kFileId;
    ASSERT_TRUE(send_frame(*client, p2p::wire::encode(request)));
    client->set_recv_timeout(2000);
    while (auto frame = recv_frame(*client, 1u << 20))
      frames.push_back(std::move(*frame));
  }
  server.stop();

  ASSERT_EQ(frames.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(frames[i], p2p::wire::encode(pool[i])) << "frame " << i;

  const std::uint64_t delayed = injector->stats().frames_delayed;
  ASSERT_GT(delayed, pool.size());  // the request and every message
  const std::uint64_t wakeups =
      registry
          .counter("fairshare_loop_wakeups_total",
                   {{"loop", std::to_string(kPeerId) + ".0"}})
          .value();
  EXPECT_LE(wakeups, kWakeupsPerDelayedFrame * delayed)
      << delayed << " delayed frames";
}

}  // namespace
}  // namespace fairshare::net
