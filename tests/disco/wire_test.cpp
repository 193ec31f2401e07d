// disco wire codecs: round-trips, tag discipline, and total decoders
// (every truncation of every valid frame must yield nullopt, never UB).
#include <gtest/gtest.h>

#include <vector>

#include "disco/wire.hpp"
#include "hex.hpp"

namespace fairshare::disco::wire {
namespace {

using test_support::from_hex;
using test_support::to_hex;

Member member(dht::RingId id, const std::string& host, std::uint16_t port) {
  Member m;
  m.id = id;
  m.host = host;
  m.port = port;
  return m;
}

Provider provider(std::uint64_t peer, const std::string& host,
                  std::uint16_t port) {
  Provider p;
  p.peer_id = peer;
  p.host = host;
  p.port = port;
  return p;
}

TEST(DiscoWire, LookupRoundTrip) {
  const LookupRequest req{0xdeadbeefcafef00dull};
  const auto req_frame = encode(req);
  EXPECT_EQ(peek_type(req_frame), MessageType::lookup_request);
  EXPECT_EQ(decode_lookup_request(req_frame), req);

  LookupResponse resp;
  resp.done = true;
  resp.target = member(42, "127.0.0.1", 9000);
  resp.successors = {member(43, "10.0.0.1", 9001), member(44, "h", 9002)};
  const auto resp_frame = encode(resp);
  EXPECT_EQ(peek_type(resp_frame), MessageType::lookup_response);
  EXPECT_EQ(decode_lookup_response(resp_frame), resp);
}

TEST(DiscoWire, AnnounceResolveRoundTrip) {
  AnnounceRequest areq;
  areq.file_id = 777;
  areq.provider = provider(5, "127.0.0.1", 8080);
  areq.ttl_ms = 10'000;
  areq.replicate = false;
  EXPECT_EQ(decode_announce_request(encode(areq)), areq);

  AnnounceResponse aresp;
  aresp.stored = true;
  aresp.replicas = 3;
  EXPECT_EQ(decode_announce_response(encode(aresp)), aresp);

  const ResolveRequest rreq{777};
  EXPECT_EQ(decode_resolve_request(encode(rreq)), rreq);

  ResolveResponse rresp;
  rresp.providers = {provider(1, "a", 1), provider(2, "bb", 2)};
  EXPECT_EQ(decode_resolve_response(encode(rresp)), rresp);
}

TEST(DiscoWire, JoinGossipStatusRoundTrip) {
  const JoinRequest join{member(7, "127.0.0.1", 7777)};
  EXPECT_EQ(decode_join_request(encode(join)), join);

  Gossip gossip;
  gossip.reply = true;
  gossip.from = member(1, "x", 1);
  gossip.members = {member(1, "x", 1), member(2, "y", 2)};
  gossip.ledger = {{10, 1, 123.5}, {11, 2, 0.0}};
  EXPECT_EQ(decode_gossip(encode(gossip)), gossip);

  EXPECT_EQ(decode_status_request(encode(StatusRequest{})), StatusRequest{});

  StatusResponse status;
  status.self = member(9, "z", 9);
  status.members = {member(9, "z", 9)};
  status.provider_records = 4;
  status.ledger_entries = 2;
  status.gossip_rounds = 100;
  status.lookups_served = 50;
  EXPECT_EQ(decode_status_response(encode(status)), status);
}

TEST(DiscoWire, EmptyCollectionsRoundTrip) {
  LookupResponse resp;  // not done, no successors
  resp.target = member(1, "", 1);
  EXPECT_EQ(decode_lookup_response(encode(resp)), resp);
  EXPECT_EQ(decode_resolve_response(encode(ResolveResponse{})),
            ResolveResponse{});
  Gossip gossip;
  gossip.from = member(1, "x", 1);
  EXPECT_EQ(decode_gossip(encode(gossip)), gossip);
}

TEST(DiscoWire, TagsAreDisjointFromP2p) {
  // p2p::wire owns tags 1–8; every disco frame must lead with >= 64 so a
  // misrouted frame can never alias.
  for (const auto& frame :
       {encode(LookupRequest{}), encode(AnnounceRequest{}),
        encode(ResolveRequest{}), encode(JoinRequest{}), encode(Gossip{}),
        encode(StatusRequest{})}) {
    ASSERT_FALSE(frame.empty());
    EXPECT_GE(static_cast<std::uint8_t>(frame[0]), 64);
  }
}

TEST(DiscoWire, DecodersAreTotalOnTruncations) {
  Gossip gossip;
  gossip.from = member(1, "host-a", 1);
  gossip.members = {member(2, "host-b", 2), member(3, "host-c", 3)};
  gossip.ledger = {{1, 1, 1.0}};
  const auto frames = {encode(gossip), encode(LookupRequest{5}),
                       encode(AnnounceRequest{}), encode(StatusRequest{})};
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::byte> cut(frame.data(), len);
      EXPECT_EQ(decode_gossip(cut), std::nullopt);
      EXPECT_EQ(decode_lookup_request(cut), std::nullopt);
      EXPECT_EQ(decode_announce_request(cut), std::nullopt);
      EXPECT_EQ(decode_status_request(cut), std::nullopt);
    }
  }
}

TEST(DiscoWire, TrailingGarbageIsRejected) {
  auto frame = encode(LookupRequest{5});
  frame.push_back(std::byte{0});
  EXPECT_EQ(decode_lookup_request(frame), std::nullopt);
}

TEST(DiscoWire, WrongTagIsRejected) {
  const auto frame = encode(LookupRequest{5});
  EXPECT_EQ(decode_resolve_request(frame), std::nullopt);
  EXPECT_EQ(decode_gossip(frame), std::nullopt);
}

TEST(DiscoWire, ImplausibleCountFieldIsRejectedWithoutAllocating) {
  // A hostile frame can claim 2^32-ish members in four bytes; the decoder
  // must reject it from the byte budget instead of resizing first.
  Gossip gossip;
  gossip.from = member(1, "x", 1);
  auto frame = encode(gossip);
  // The member-count field sits right after tag + reply + from; stamp it
  // with an absurd count and keep the frame short.
  ASSERT_GT(frame.size(), 4u);
  frame[frame.size() - 12] = std::byte{0xff};  // somewhere in the counts
  const auto decoded = decode_gossip(frame);
  // Either rejected outright or decoded to something consistent — but it
  // must return (no crash/OOM) and never invent members.
  if (decoded) {
    EXPECT_LE(decoded->members.size(), frame.size());
  }
}

TEST(DiscoWire, PeekTypeRejectsForeignTags) {
  EXPECT_EQ(peek_type({}), std::nullopt);
  const std::byte p2p_tag[] = {std::byte{3}};
  EXPECT_EQ(peek_type(p2p_tag), std::nullopt);
  const std::byte beyond[] = {std::byte{74}};
  EXPECT_EQ(peek_type(beyond), std::nullopt);
}

// Exact frames of one sample of each type.  Round trips cannot see a
// layout change made on both sides; these can.  They were recorded from
// an earlier encoder, independent of the one under test: never
// regenerate them from the encoder.
constexpr const char* kGoldenLookupRequest = "400df0fecaefbeadde";
constexpr const char* kGoldenLookupResponse =
    "41012a0000000000000009003132372e302e302e31282302002b000000000000"
    "00080031302e302e302e3129232c000000000000000100682a23";
constexpr const char* kGoldenAnnounceRequest =
    "420903000000000000050000000000000009003132372e302e302e31901f1027"
    "000000";
constexpr const char* kGoldenAnnounceResponse = "430103";
constexpr const char* kGoldenResolveRequest = "440903000000000000";
constexpr const char* kGoldenResolveResponse =
    "450200010000000000000001006101000200000000000000020062620200";
constexpr const char* kGoldenJoinRequest =
    "46070000000000000009003132372e302e302e31611e";
constexpr const char* kGoldenGossip =
    "4701010000000000000001007801000200010000000000000001007801000200"
    "0000000000000100790200020000000a00000000000000010000000000000000"
    "00000000e05e400b0000000000000002000000000000000000000000000000";
constexpr const char* kGoldenStatusRequest = "48";
constexpr const char* kGoldenStatusResponse =
    "49090000000000000001007a09000100090000000000000001007a0900040000"
    "000200000064000000000000003200000000000000";

/// Decode a frame with its type's decoder and encode the result again.
std::optional<std::vector<std::byte>> reencode(
    std::span<const std::byte> frame) {
  const auto again = [](const auto& decoded) {
    return decoded ? std::optional(encode(*decoded)) : std::nullopt;
  };
  switch (peek_type(frame).value_or(MessageType{})) {
    case MessageType::lookup_request:
      return again(decode_lookup_request(frame));
    case MessageType::lookup_response:
      return again(decode_lookup_response(frame));
    case MessageType::announce_request:
      return again(decode_announce_request(frame));
    case MessageType::announce_response:
      return again(decode_announce_response(frame));
    case MessageType::resolve_request:
      return again(decode_resolve_request(frame));
    case MessageType::resolve_response:
      return again(decode_resolve_response(frame));
    case MessageType::join_request:
      return again(decode_join_request(frame));
    case MessageType::gossip:
      return again(decode_gossip(frame));
    case MessageType::status_request:
      return again(decode_status_request(frame));
    case MessageType::status_response:
      return again(decode_status_response(frame));
  }
  return std::nullopt;
}

TEST(DiscoWire, GoldenFramesOfEveryType) {
  LookupResponse lookup;
  lookup.done = true;
  lookup.target = member(42, "127.0.0.1", 9000);
  lookup.successors = {member(43, "10.0.0.1", 9001), member(44, "h", 9002)};
  AnnounceRequest announce;
  announce.file_id = 777;
  announce.provider = provider(5, "127.0.0.1", 8080);
  announce.ttl_ms = 10'000;
  announce.replicate = false;
  ResolveResponse resolved;
  resolved.providers = {provider(1, "a", 1), provider(2, "bb", 2)};
  Gossip gossip;
  gossip.reply = true;
  gossip.from = member(1, "x", 1);
  gossip.members = {member(1, "x", 1), member(2, "y", 2)};
  gossip.ledger = {{10, 1, 123.5}, {11, 2, 0.0}};
  StatusResponse status;
  status.self = member(9, "z", 9);
  status.members = {member(9, "z", 9)};
  status.provider_records = 4;
  status.ledger_entries = 2;
  status.gossip_rounds = 100;
  status.lookups_served = 50;

  const std::pair<std::vector<std::byte>, const char*> cases[] = {
      {encode(LookupRequest{0xdeadbeefcafef00dull}), kGoldenLookupRequest},
      {encode(lookup), kGoldenLookupResponse},
      {encode(announce), kGoldenAnnounceRequest},
      {encode(AnnounceResponse{true, 3}), kGoldenAnnounceResponse},
      {encode(ResolveRequest{777}), kGoldenResolveRequest},
      {encode(resolved), kGoldenResolveResponse},
      {encode(JoinRequest{member(7, "127.0.0.1", 7777)}), kGoldenJoinRequest},
      {encode(gossip), kGoldenGossip},
      {encode(StatusRequest{}), kGoldenStatusRequest},
      {encode(status), kGoldenStatusResponse},
  };
  for (const auto& [frame, golden] : cases) {
    EXPECT_EQ(to_hex(frame), golden);
    const auto again = reencode(from_hex(golden));
    ASSERT_TRUE(again.has_value()) << golden;
    EXPECT_EQ(to_hex(*again), golden) << "decode + re-encode moved a byte";
  }
}

}  // namespace
}  // namespace fairshare::disco::wire
