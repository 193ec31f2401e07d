// Serve parity: the byte stream a client receives from the reactor's
// zero-copy scatter-gather path (try_write_frame_ext, arena heads,
// payload referenced in the MessageStore) must be exactly the copying
// encoder's output, frame for frame.  Also under a seeded server-side
// FaultyTransport: the fault schedule is a pure function of the seed and
// the frame sequence, so even the corrupted/duplicated/dropped stream is
// pinned by committed goldens (frame count, SHA-256 of the frames,
// injected-fault counts).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "coding/encoder.hpp"
#include "crypto/sha256.hpp"
#include "hex.hpp"
#include "net/fault_transport.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
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

TEST(ServeParity, CleanStreamIsTheEncodedStore) {
  const auto pool = make_pool();
  const Frames frames = serve_once(pool, std::nullopt);

  // Clean wire: the verbatim store arrives in order, and the zero-copy
  // frames are byte-identical to the copying encoder's output.
  ASSERT_EQ(frames.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(frames[i], p2p::wire::encode(pool[i])) << "frame " << i;
}

/// One seed's served stream, recorded from the reactor before the
/// blocking transport discipline was folded into the non-blocking one.
struct GoldenRun {
  std::uint64_t seed;
  std::size_t frames;
  const char* sha256_hex;  ///< SHA-256 of the received frames, concatenated
  FaultStats stats;        ///< server-side injected faults
};

constexpr GoldenRun kGolden[] = {
    {11, 82,
     "be0c3dffd99fe29404218c50725df1dd769d238911b74e8d419e125e34c397dd",
     {.frames_dropped = 4,
      .frames_corrupted = 11,
      .frames_duplicated = 7,
      .frames_delayed = 7}},
    {22, 88,
     "99bcb0eb6566849db58dde035f5477f3432aadddf2ca783f3da6224a7629a8e7",
     {.frames_dropped = 6,
      .frames_corrupted = 17,
      .frames_duplicated = 18,
      .frames_delayed = 8}},
    {33, 89,
     "0fb4de0a1cd102b2442166010831f2eb093a733b0f1b963f3d54be5d8b0e9ce5",
     {.frames_dropped = 8,
      .frames_corrupted = 15,
      .frames_duplicated = 21,
      .frames_delayed = 7}},
};

TEST(ServeParity, FaultedStreamsMatchGoldenSchedule) {
  // Same plan seed => same per-frame fault draws (the request is frame 1;
  // the stream follows in order) => the received stream is fixed even
  // though frames are mangled, duplicated, delayed and dropped in transit.
  // This pins the FaultyTransport materialisation of try_write_frame_ext
  // to one budget charge and one draw per frame.
  const auto pool = make_pool();
  for (const GoldenRun& golden : kGolden) {
    FaultPlan plan;
    plan.seed = golden.seed;
    plan.corrupt_rate = 0.20;
    plan.duplicate_rate = 0.20;
    plan.drop_rate = 0.10;
    plan.delay_rate = 0.10;
    plan.delay_ms = 1;
    FaultStats served;
    const Frames frames = serve_once(pool, plan, &served);
    crypto::Sha256 sha;
    for (const auto& frame : frames) sha.update(std::span(frame));
    const auto digest = sha.finish();
    EXPECT_EQ(frames.size(), golden.frames) << "seed " << golden.seed;
    EXPECT_EQ(test_support::to_hex(digest), golden.sha256_hex)
        << "seed " << golden.seed;
    EXPECT_EQ(served.connections_refused, golden.stats.connections_refused);
    EXPECT_EQ(served.connections_reset, golden.stats.connections_reset);
    EXPECT_EQ(served.frames_dropped, golden.stats.frames_dropped)
        << "seed " << golden.seed;
    EXPECT_EQ(served.frames_corrupted, golden.stats.frames_corrupted)
        << "seed " << golden.seed;
    EXPECT_EQ(served.frames_duplicated, golden.stats.frames_duplicated)
        << "seed " << golden.seed;
    EXPECT_EQ(served.frames_delayed, golden.stats.frames_delayed)
        << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace fairshare::net
