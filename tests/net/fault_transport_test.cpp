// Unit tests for the Transport seam: FaultyTransport's seeded fault
// schedules (reset / drop / duplicate / corrupt) over an in-memory pipe,
// and RetryPolicy's backoff arithmetic (injected inputs, no sleeping).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coding/encoder.hpp"
#include "coding/codec.hpp"
#include "hex.hpp"
#include "net/fault_transport.hpp"
#include "net/retry.hpp"
#include "net/transport.hpp"
#include "p2p/wire.hpp"
#include "pipe_transport.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

std::vector<std::byte> frame_of(std::uint8_t tag, std::size_t len = 8) {
  return std::vector<std::byte>(len, std::byte{tag});
}

// ------------------------------------------------------------ transport

TEST(Transport, DefaultFrameImplementationRoundTrips) {
  Pipe pipe;
  auto b = pipe.b_owned();
  const auto frame = frame_of(0x5A, 13);
  ASSERT_TRUE(send_frame(pipe.a, frame));
  const auto got = recv_frame(*b, 64);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  // Nothing buffered: clean timeout, retryable.
  EXPECT_FALSE(recv_frame(*b, 64).has_value());
  EXPECT_TRUE(b->timed_out());
}

TEST(Transport, GoldenLengthPrefix) {
  // Every frame travels behind a u32 little-endian length; 300 bytes is
  // 0x012c.  Both write paths must put the same four bytes on the wire.
  const auto pop_prefix_hex = [](std::deque<std::byte>& wire) {
    std::vector<std::byte> head(wire.begin(), wire.begin() + 4);
    wire.erase(wire.begin(), wire.begin() + 304);
    return test_support::to_hex(head);
  };
  Pipe pipe;
  const auto frame = frame_of(0x5A, 300);
  ASSERT_TRUE(send_frame(pipe.a, frame));
  ASSERT_EQ(pipe.state->to_b.size(), 304u);
  EXPECT_EQ(pop_prefix_hex(pipe.state->to_b), "2c010000");

  const std::span<const std::byte> whole(frame);
  const TryWrite w =
      pipe.a.try_write_frame_ext(whole.first(100), whole.subspan(100));
  ASSERT_TRUE(w.accepted);
  ASSERT_EQ(pipe.state->to_b.size(), 304u);
  EXPECT_EQ(pop_prefix_hex(pipe.state->to_b), "2c010000");
}

TEST(Transport, RecvTimeoutMidFrameKeepsThePartialFrame) {
  // A recv timeout bounds one recv_frame call.  The part of a frame that
  // arrived before it struck stays in the reassembly state, so the retry
  // returns the whole frame instead of reading body bytes as a header.
  Pipe pipe;
  auto b = pipe.b_owned();
  const auto frame = frame_of(0x3C, 40);
  auto& wire = pipe.state->to_b;
  const std::byte prefix[] = {std::byte{40}, std::byte{0}, std::byte{0},
                              std::byte{0}};
  wire.insert(wire.end(), std::begin(prefix), std::end(prefix));
  wire.insert(wire.end(), frame.begin(), frame.begin() + 20);
  EXPECT_FALSE(recv_frame(*b, 64).has_value());
  EXPECT_TRUE(b->timed_out()) << "a stalled frame is a timeout, not an error";

  wire.insert(wire.end(), frame.begin() + 20, frame.end());
  const auto got = recv_frame(*b, 64);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
}

TEST(FaultyTransport, ResetAfterNFramesKillsBothDirections) {
  Pipe pipe;
  FaultPlan plan;
  plan.reset_after_frames = 3;
  FaultyTransport faulty(pipe.b_owned(), plan);
  for (std::uint8_t i = 0; i < 5; ++i)
    ASSERT_TRUE(send_frame(pipe.a, frame_of(i)));

  for (std::uint8_t i = 0; i < 3; ++i) {
    const auto got = recv_frame(faulty, 64);
    ASSERT_TRUE(got.has_value()) << "frame " << int(i);
    EXPECT_EQ(*got, frame_of(i));
  }
  // Budget spent: the 4th read is the reset, a hard (non-timeout) error,
  // and writes die with it.
  EXPECT_FALSE(recv_frame(faulty, 64).has_value());
  EXPECT_FALSE(faulty.timed_out());
  EXPECT_FALSE(send_frame(faulty, frame_of(9)));
  EXPECT_FALSE(faulty.valid());
  EXPECT_EQ(faulty.stats().connections_reset, 1u);
}

TEST(FaultyTransport, WriteSideCountsFramesTowardsReset) {
  Pipe pipe;
  FaultPlan plan;
  plan.reset_after_frames = 2;
  FaultyTransport faulty(pipe.b_owned(), plan);
  EXPECT_TRUE(send_frame(faulty, frame_of(1)));
  EXPECT_TRUE(send_frame(faulty, frame_of(2)));
  EXPECT_FALSE(send_frame(faulty, frame_of(3)));  // reset fires
  EXPECT_EQ(faulty.stats().connections_reset, 1u);
}

TEST(FaultyTransport, DropSkipsFramesDeterministically) {
  const auto deliver = [](std::uint64_t seed) {
    Pipe pipe;
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.5;
    FaultyTransport faulty(pipe.b_owned(), plan);
    for (std::uint8_t i = 0; i < 20; ++i)
      EXPECT_TRUE(send_frame(pipe.a, frame_of(i)));
    std::vector<std::uint8_t> got;
    for (;;) {
      const auto frame = recv_frame(faulty, 64);
      if (!frame) break;
      got.push_back(std::to_integer<std::uint8_t>((*frame)[0]));
    }
    return std::make_pair(got, faulty.stats().frames_dropped);
  };
  const auto [got1, dropped1] = deliver(42);
  const auto [got2, dropped2] = deliver(42);
  const auto [got3, dropped3] = deliver(1337);
  EXPECT_EQ(got1, got2) << "same seed, same schedule";
  EXPECT_EQ(dropped1, dropped2);
  EXPECT_EQ(got1.size() + dropped1, 20u) << "every frame delivered or counted";
  EXPECT_GT(dropped1, 0u);
  EXPECT_LT(dropped1, 20u);
  EXPECT_NE(got1, got3) << "different seed, different schedule";
}

TEST(FaultyTransport, DuplicateDeliversTheSameFrameTwice) {
  Pipe pipe;
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  FaultyTransport faulty(pipe.b_owned(), plan);
  ASSERT_TRUE(send_frame(pipe.a, frame_of(7)));
  ASSERT_TRUE(send_frame(pipe.a, frame_of(8)));
  const auto first = recv_frame(faulty, 64);
  const auto again = recv_frame(faulty, 64);
  const auto second = recv_frame(faulty, 64);
  ASSERT_TRUE(first && again && second);
  EXPECT_EQ(*first, frame_of(7));
  EXPECT_EQ(*again, frame_of(7));
  EXPECT_EQ(*second, frame_of(8));
  EXPECT_TRUE(faulty.want_read()) << "the duplicate of frame 8 is pending";
  EXPECT_EQ(faulty.stats().frames_duplicated, 2u);
}

// Satellite: every flipped-byte frame must be caught by the MD5 message
// digest — rejected as bad_digest, never silently fed to the solver.
TEST(FaultyTransport, CorruptionIsCaughtByMessageDigests) {
  coding::SecretKey secret{};
  secret[0] = 9;
  std::vector<std::byte> data(2048);
  sim::SplitMix64 rng(5);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  const coding::CodingParams params{gf::FieldId::gf2_32, 64};  // k = 8
  coding::FileEncoder encoder(secret, 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  Pipe pipe;
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  FaultyTransport faulty(pipe.b_owned(), plan);
  for (const auto& m : messages)
    ASSERT_TRUE(send_frame(pipe.a, p2p::wire::encode(m)));

  coding::CodecDecoder decoder(secret, encoder.info());
  std::size_t parsed = 0;
  for (;;) {
    const auto frame = recv_frame(faulty, 1 << 16);
    if (!frame) break;
    // The flip targets the payload region, so the frame still parses —
    // authentication, not framing, must catch it.
    const auto msg = p2p::wire::decode_coded_message(*frame);
    ASSERT_TRUE(msg.has_value());
    ++parsed;
    EXPECT_EQ(decoder.add(*msg), coding::AddResult::bad_digest);
  }
  EXPECT_EQ(parsed, messages.size());
  EXPECT_EQ(decoder.rank(), 0u) << "no corrupt message reached the solver";
  EXPECT_EQ(decoder.rejected_auth(), messages.size());
  EXPECT_EQ(faulty.stats().frames_corrupted, messages.size());
}

TEST(FaultInjector, StatePersistsAcrossReconnects) {
  // The same injector wraps two successive connections: the RNG stream
  // continues (drops differ between passes) and stats accumulate.
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.5;
  FaultInjector injector(plan);
  std::size_t delivered = 0;
  for (int conn = 0; conn < 2; ++conn) {
    Pipe pipe;
    auto faulty = injector.wrap(pipe.b_owned());
    for (std::uint8_t i = 0; i < 10; ++i)
      ASSERT_TRUE(send_frame(pipe.a, frame_of(i)));
    while (recv_frame(*faulty, 64)) ++delivered;
  }
  EXPECT_EQ(delivered + injector.stats().frames_dropped, 20u);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(injector.stats().frames_dropped, 0u);
}

TEST(FaultInjector, RefusalIsDeterministicAndCounted) {
  FaultPlan plan;
  plan.refuse_connection = true;
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.admits_connection());
  EXPECT_FALSE(injector.admits_connection());
  EXPECT_EQ(injector.stats().connections_refused, 2u);
  FaultInjector open(FaultPlan{});
  EXPECT_TRUE(open.admits_connection());
  EXPECT_EQ(open.stats().connections_refused, 0u);
}

// ---------------------------------------------------------- RetryPolicy
// Satellite: pure backoff arithmetic — injected attempt indices and
// seeds, no clocks, no sleeping.

TEST(RetryPolicy, ExponentialEnvelopeWithEqualJitter) {
  RetryPolicy policy;
  policy.base_ms = 10;
  policy.max_ms = 10000;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const int envelope = 10 << (attempt - 1);
    for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
      const int d = policy.delay_ms(attempt, seed);
      EXPECT_GE(d, envelope / 2) << "attempt " << attempt;
      EXPECT_LE(d, envelope) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, CapsAtMaxMs) {
  RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 750;
  for (int attempt = 1; attempt <= 40; ++attempt) {
    const int d = policy.delay_ms(attempt, 7);
    EXPECT_LE(d, 750);
    if (attempt >= 4) {
      EXPECT_GE(d, 750 / 2);  // envelope saturated
    }
  }
}

TEST(RetryPolicy, JitterIsDeterministicInSeedAndAttempt) {
  RetryPolicy policy;
  policy.base_ms = 64;
  policy.max_ms = 1 << 20;
  bool any_seed_difference = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_EQ(policy.delay_ms(attempt, 123), policy.delay_ms(attempt, 123));
    if (policy.delay_ms(attempt, 123) != policy.delay_ms(attempt, 456))
      any_seed_difference = true;
  }
  EXPECT_TRUE(any_seed_difference) << "jitter ignores the seed";
}

TEST(RetryPolicy, DegenerateInputsAreSafe) {
  RetryPolicy policy;
  policy.base_ms = 0;
  EXPECT_EQ(policy.delay_ms(3, 1), 0);
  policy.base_ms = 10;
  EXPECT_EQ(policy.delay_ms(0, 1), 0);  // no failed attempt yet
}

}  // namespace
}  // namespace fairshare::net
