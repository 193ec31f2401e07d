// Serve parity: the byte stream a client receives from the reactor's
// zero-copy scatter-gather path (try_write_frame_ext, arena heads,
// payload referenced in the MessageStore) must be exactly the copying
// encoder's output, frame for frame.  Also under a seeded server-side
// FaultyTransport: the fault schedule is a pure function of the seed and
// the frame sequence, so even the corrupted/duplicated/dropped stream
// must equal a reference that writes the same frames through the
// transport's blocking path over an in-memory pipe.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "coding/encoder.hpp"
#include "net/fault_transport.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
#include "pipe_transport.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

constexpr std::uint64_t kFileId = 42;

using Frames = std::vector<std::vector<std::byte>>;

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

/// One screened message pool the server serves verbatim, so any byte
/// difference from the reference is the serve path's fault.
std::vector<coding::EncodedMessage> make_pool() {
  coding::SecretKey secret{};
  secret[0] = 21;
  const auto data = blob(40000, 0xFEED);
  coding::FileEncoder encoder(secret, kFileId, data,
                              coding::CodingParams{gf::FieldId::gf2_16, 256});
  return encoder.generate(encoder.k());
}

p2p::MessageStore store_of(const std::vector<coding::EncodedMessage>& pool) {
  p2p::MessageStore store;
  for (const auto& m : pool) store.store(coding::EncodedMessage(m));
  return store;
}

std::vector<std::byte> request_frame() {
  p2p::wire::FileRequest request;
  request.user_id = 7;
  request.file_id = kFileId;
  request.max_rate_kbps = 0.0;
  return p2p::wire::encode(request);
}

/// Request the file from a live server and drain the whole stream until
/// the server closes, returning the raw frames in arrival order.
Frames serve_once(const std::vector<coding::EncodedMessage>& pool,
                  const std::optional<FaultPlan>& plan,
                  FaultStats* stats_out = nullptr) {
  PeerServer::Config config;
  config.require_auth = false;
  std::shared_ptr<FaultInjector> injector;
  if (plan) {
    injector = std::make_shared<FaultInjector>(*plan);
    config.transport_wrapper = [injector](std::unique_ptr<Transport> inner) {
      return injector->wrap(std::move(inner));
    };
  }
  PeerServer server(config, store_of(pool));
  EXPECT_TRUE(server.start());
  Frames frames;
  if (auto client = Socket::connect_to("127.0.0.1", server.port())) {
    EXPECT_TRUE(send_frame(*client, request_frame()));
    client->set_recv_timeout(2000);
    while (auto frame = recv_frame(*client, 1u << 20))
      frames.push_back(std::move(*frame));
  } else {
    ADD_FAILURE() << "connect failed";
  }
  server.stop();
  if (stats_out && injector) *stats_out = injector->stats();
  return frames;
}

/// The same session without a server: read the request through the
/// plan's FaultyTransport, write every encoded message through its
/// blocking path, and collect what reaches the far end of the pipe.
Frames blocking_reference(const std::vector<coding::EncodedMessage>& pool,
                          const FaultPlan& plan, FaultStats* stats_out) {
  Pipe pipe;
  FaultyTransport server_side(pipe.b_owned(), plan);
  EXPECT_TRUE(send_frame(pipe.a, request_frame()));
  const auto frame = recv_frame(server_side, 1u << 16);
  const auto request =
      frame ? p2p::wire::decode_file_request(*frame) : std::nullopt;
  if (request && request->file_id == kFileId)
    for (const auto& msg : pool)
      if (!send_frame(server_side, p2p::wire::encode(msg))) break;
  server_side.close();
  *stats_out = server_side.stats();
  Frames frames;
  while (auto out = recv_frame(pipe.a, 1u << 20))
    frames.push_back(std::move(*out));
  return frames;
}

TEST(ServeParity, CleanStreamIsTheEncodedStore) {
  const auto pool = make_pool();
  const Frames frames = serve_once(pool, std::nullopt);

  // Clean wire: the verbatim store arrives in order, and the zero-copy
  // frames are byte-identical to the copying encoder's output.
  ASSERT_EQ(frames.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(frames[i], p2p::wire::encode(pool[i])) << "frame " << i;
}

TEST(ServeParity, FaultedStreamsMatchBlockingReference) {
  // Same plan seed => same per-frame fault draws (the request is frame 1;
  // the stream follows in order) => the received stream must match the
  // reference even though frames are mangled, duplicated, and dropped in
  // transit.  This pins the FaultyTransport materialisation of
  // try_write_frame_ext to one budget charge and one draw per frame.
  const auto pool = make_pool();
  FaultStats total;
  std::size_t frames_seen = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.corrupt_rate = 0.20;
    plan.duplicate_rate = 0.20;
    plan.drop_rate = 0.10;
    plan.delay_rate = 0.10;
    plan.delay_ms = 1;
    FaultStats served, expected;
    const Frames reactor = serve_once(pool, plan, &served);
    const Frames reference = blocking_reference(pool, plan, &expected);
    ASSERT_EQ(reactor.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < reactor.size(); ++i)
      ASSERT_EQ(reactor[i], reference[i])
          << "seed " << seed << " frame " << i;
    // Identical schedules on identical traffic: the stats must agree too.
    EXPECT_EQ(served.frames_dropped, expected.frames_dropped) << seed;
    EXPECT_EQ(served.frames_corrupted, expected.frames_corrupted) << seed;
    EXPECT_EQ(served.frames_duplicated, expected.frames_duplicated) << seed;
    EXPECT_EQ(served.frames_delayed, expected.frames_delayed) << seed;
    EXPECT_EQ(served.connections_reset, expected.connections_reset) << seed;
    total.frames_dropped += served.frames_dropped;
    total.frames_corrupted += served.frames_corrupted;
    total.frames_duplicated += served.frames_duplicated;
    frames_seen += reactor.size();
  }
  // The sweep must actually exercise the faulted scatter-gather path.
  EXPECT_GT(frames_seen, 0u);
  EXPECT_GE(total.frames_corrupted, 1u);
  EXPECT_GE(total.frames_duplicated, 1u);
  EXPECT_GE(total.frames_dropped, 1u);
}

}  // namespace
}  // namespace fairshare::net
