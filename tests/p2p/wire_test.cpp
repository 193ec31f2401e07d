// Wire formats: exact round-trips, defensive parsing of truncated and
// mutated frames, and cross-type rejection.
#include <gtest/gtest.h>

#include <vector>

#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::p2p::wire {
namespace {

crypto::AuthHello sample_hello() {
  crypto::AuthHello m;
  m.user_id = 0x1122334455667788ull;
  for (std::size_t i = 0; i < m.user_nonce.size(); ++i)
    m.user_nonce[i] = static_cast<std::uint8_t>(i * 3);
  return m;
}

crypto::AuthChallenge sample_challenge() {
  crypto::AuthChallenge m;
  m.peer_id = 42;
  for (std::size_t i = 0; i < m.peer_nonce.size(); ++i)
    m.peer_nonce[i] = static_cast<std::uint8_t>(0xF0 - i);
  m.signature = {1, 2, 3, 4, 5, 6, 7};
  return m;
}

crypto::AuthResponse sample_response() {
  crypto::AuthResponse m;
  m.signature = {9, 8, 7};
  m.encrypted_session_key = {0xAA, 0xBB};
  return m;
}

coding::EncodedMessage sample_coded() {
  coding::EncodedMessage m;
  m.file_id = 7;
  m.message_id = 13;
  m.payload = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{255}};
  return m;
}

coding::AuthenticatedMessage sample_authenticated() {
  coding::AuthenticatedMessage m;
  m.message = sample_coded();
  m.leaf_index = 5;
  m.proof.resize(3);
  for (std::size_t p = 0; p < m.proof.size(); ++p)
    for (std::size_t i = 0; i < 32; ++i)
      m.proof[p][i] = static_cast<std::uint8_t>(p * 32 + i);
  return m;
}

coding::FileInfo sample_info() {
  coding::FileInfo info;
  info.file_id = 99;
  info.original_bytes = 123456;
  info.params = {gf::FieldId::gf2_16, 4096};
  info.k = 16;
  for (std::size_t i = 0; i < info.content_digest.size(); ++i)
    info.content_digest[i] = static_cast<std::uint8_t>(0x40 + i);
  for (std::uint64_t mid = 0; mid < 5; ++mid) {
    crypto::Md5Digest d{};
    d[0] = static_cast<std::uint8_t>(mid);
    info.message_digests.emplace(mid * 7, d);
  }
  return info;
}

TEST(Wire, AuthHelloRoundTrip) {
  const auto m = sample_hello();
  const auto frame = encode(m);
  EXPECT_EQ(peek_type(frame), MessageType::auth_hello);
  const auto back = decode_auth_hello(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->user_id, m.user_id);
  EXPECT_EQ(back->user_nonce, m.user_nonce);
}

TEST(Wire, AuthChallengeRoundTrip) {
  const auto m = sample_challenge();
  const auto back = decode_auth_challenge(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->peer_id, m.peer_id);
  EXPECT_EQ(back->peer_nonce, m.peer_nonce);
  EXPECT_EQ(back->signature, m.signature);
}

TEST(Wire, AuthResponseRoundTrip) {
  const auto m = sample_response();
  const auto back = decode_auth_response(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->signature, m.signature);
  EXPECT_EQ(back->encrypted_session_key, m.encrypted_session_key);
}

TEST(Wire, FileRequestRoundTrip) {
  const FileRequest m{11, 22, 768.5};
  const auto back = decode_file_request(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Wire, StopTransmissionRoundTrip) {
  const StopTransmission m{3, 4};
  const auto back = decode_stop_transmission(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Wire, CodedMessageRoundTrip) {
  const auto m = sample_coded();
  const auto back = decode_coded_message(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->file_id, m.file_id);
  EXPECT_EQ(back->message_id, m.message_id);
  EXPECT_EQ(back->payload, m.payload);
}

TEST(Wire, EmptyPayloadCodedMessage) {
  coding::EncodedMessage m;
  m.file_id = 1;
  m.message_id = 2;
  const auto back = decode_coded_message(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Wire, CodedMessageHeaderPlusPayloadEqualsEncode) {
  // The scatter-gather serve path frames a message as header ++ payload;
  // that image must be byte-identical to the copying encoder's, for any
  // payload length (the u32 length field lives in the header).
  for (const std::size_t n : {0u, 1u, 255u, 4096u}) {
    coding::EncodedMessage m;
    m.file_id = 0x0123456789ABCDEFull;
    m.message_id = 0xFEDCBA9876543210ull;
    m.payload.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      m.payload[i] = std::byte{static_cast<std::uint8_t>(i * 37 + 1)};
    const auto header = encode_coded_message_header(m);
    std::vector<std::byte> gathered(header.begin(), header.end());
    gathered.insert(gathered.end(), m.payload.begin(), m.payload.end());
    EXPECT_EQ(gathered, encode(m)) << "payload bytes " << n;
    EXPECT_EQ(header.size(), kCodedMessageHeaderBytes);
  }
}

TEST(Wire, AuthenticatedMessageRoundTrip) {
  const auto m = sample_authenticated();
  const auto back = decode_authenticated_message(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->message.payload, m.message.payload);
  EXPECT_EQ(back->leaf_index, m.leaf_index);
  EXPECT_EQ(back->proof, m.proof);
}

TEST(Wire, FileInfoRoundTrip) {
  const auto info = sample_info();
  const auto back = decode_file_info(encode(info));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->file_id, info.file_id);
  EXPECT_EQ(back->original_bytes, info.original_bytes);
  EXPECT_EQ(back->params.field, info.params.field);
  EXPECT_EQ(back->params.m, info.params.m);
  EXPECT_EQ(back->k, info.k);
  EXPECT_EQ(back->content_digest, info.content_digest);
  EXPECT_EQ(back->message_digests, info.message_digests);
}

TEST(Wire, ChunkedFileInfoRoundTrip) {
  auto info = sample_info();
  info.codec = coding::CodecKind::chunked;
  info.schedule.class_size = 48;
  info.schedule.overlap = 6;
  info.schedule.seed = 0x1122334455667788ull;
  const auto back = decode_file_info(encode(info));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->codec, coding::CodecKind::chunked);
  EXPECT_EQ(back->schedule, info.schedule);
  EXPECT_EQ(back->message_digests, info.message_digests);
}

TEST(Wire, DenseFileInfoCarriesNoCodecTrailer) {
  // Dense metadata must stay byte-identical to the pre-codec wire format
  // (old clients keep working); the chunked trailer costs exactly
  // 1 (codec) + 4 (class_size) + 4 (overlap) + 8 (seed) bytes.
  auto info = sample_info();
  const auto dense_frame = encode(info);
  info.codec = coding::CodecKind::chunked;
  const auto chunked_frame = encode(info);
  EXPECT_EQ(chunked_frame.size(), dense_frame.size() + 17);

  const auto back = decode_file_info(dense_frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->codec, coding::CodecKind::dense);
  EXPECT_EQ(back->schedule, coding::ChunkedSchedule{});
}

TEST(Wire, PreCodecFileInfoDecodesAsDense) {
  // A chunked frame cut exactly at the trailer boundary is what an
  // old-format dense frame looks like: it must parse, as dense.  (Any
  // other cut inside the trailer is rejected by the truncation sweep.)
  auto info = sample_info();
  info.codec = coding::CodecKind::chunked;
  auto frame = encode(info);
  frame.resize(frame.size() - 17);
  const auto back = decode_file_info(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->codec, coding::CodecKind::dense);
  EXPECT_EQ(back->k, info.k);
}

TEST(Wire, UnknownCodecAndInvalidScheduleRejected) {
  auto info = sample_info();
  info.codec = coding::CodecKind::chunked;
  info.schedule.class_size = 48;
  info.schedule.overlap = 6;
  auto frame = encode(info);
  ASSERT_TRUE(decode_file_info(frame).has_value());

  // The codec byte is the first trailer byte; 2 is from the future.
  auto future = frame;
  future[future.size() - 17] = std::byte{2};
  EXPECT_FALSE(decode_file_info(future).has_value());

  // overlap >= class_size is geometrically unusable.
  auto degenerate = sample_info();
  degenerate.codec = coding::CodecKind::chunked;
  degenerate.schedule.class_size = 8;
  degenerate.schedule.overlap = 8;
  EXPECT_FALSE(decode_file_info(encode(degenerate)).has_value());
}

TEST(Wire, FileInfoGeometryNoEncoderWritesIsRejected) {
  // Every encoder sets k = chunks_for_bytes(original_bytes, params); a
  // frame that breaks that must not reach a decoder constructor, which
  // would size its state by the hostile k or m.
  const auto decodes = [](const coding::FileInfo& info) {
    return decode_file_info(encode(info)).has_value();
  };
  ASSERT_TRUE(decodes(sample_info()));  // 123456 B in 8 KiB chunks: k = 16

  auto bad = sample_info();
  bad.k = 0;
  EXPECT_FALSE(decodes(bad)) << "k = 0";
  bad = sample_info();
  bad.params.m = 0;
  EXPECT_FALSE(decodes(bad)) << "m = 0 (no division by zero)";
  bad = sample_info();
  bad.k = std::uint64_t{1} << 40;
  EXPECT_FALSE(decodes(bad)) << "k = 2^40";
  bad = sample_info();
  bad.k = 8;
  bad.params.m = std::uint64_t{1} << 61;
  EXPECT_FALSE(decodes(bad)) << "k = 8, m = 2^61";
  bad = sample_info();
  bad.k = 17;
  EXPECT_FALSE(decodes(bad)) << "k one past chunks_for_bytes";
  bad = sample_info();
  bad.original_bytes = 0;
  EXPECT_FALSE(decodes(bad)) << "an empty file has no chunks";

  // GF(2^4) packs two symbols per byte: m must be even.
  auto nibbles = sample_info();
  nibbles.params = {gf::FieldId::gf2_4, 100};  // 50-byte chunks
  nibbles.original_bytes = 1000;
  nibbles.k = 20;
  EXPECT_TRUE(decodes(nibbles));
  nibbles.params.m = 101;
  EXPECT_FALSE(decodes(nibbles)) << "odd m on GF(2^4)";

  // m * 32 bits wraps to 32 in 64-bit arithmetic; a k computed from the
  // wrapped chunk size must not pass.
  auto wide = sample_info();
  wide.params = {gf::FieldId::gf2_32, (std::uint64_t{1} << 62) + 1};
  wide.k = (wide.original_bytes + 3) / 4;
  EXPECT_FALSE(decodes(wide)) << "k from a wrapped chunk size";
}

TEST(Wire, ChunkedFileInfoTruncationsRejectedOrDense) {
  // The full truncation sweep for a chunked frame, acknowledging the one
  // deliberate exception: cutting the whole trailer yields a valid dense
  // parse (that IS the backward-compatibility contract).
  auto info = sample_info();
  info.codec = coding::CodecKind::chunked;
  const auto frame = encode(info);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::byte> cut(frame.data(), len);
    const auto parsed = decode_file_info(cut);
    if (len == frame.size() - 17) {
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(parsed->codec, coding::CodecKind::dense);
    } else {
      EXPECT_FALSE(parsed.has_value()) << "truncation to " << len;
    }
  }
}

TEST(Wire, CrossTypeDecodingRejected) {
  const auto hello = encode(sample_hello());
  EXPECT_FALSE(decode_auth_challenge(hello).has_value());
  EXPECT_FALSE(decode_file_request(hello).has_value());
  EXPECT_FALSE(decode_coded_message(hello).has_value());
  EXPECT_FALSE(decode_file_info(hello).has_value());
}

TEST(Wire, EveryTruncationRejected) {
  const std::vector<std::vector<std::byte>> frames = {
      encode(sample_hello()),        encode(sample_challenge()),
      encode(sample_response()),     encode(FileRequest{1, 2, 3.0}),
      encode(StopTransmission{1, 2}), encode(sample_coded()),
      encode(sample_authenticated()), encode(sample_info())};
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::byte> cut(frame.data(), len);
      const auto type = peek_type(frame);
      ASSERT_TRUE(type.has_value());
      bool parsed = false;
      switch (*type) {
        case MessageType::auth_hello: parsed = decode_auth_hello(cut).has_value(); break;
        case MessageType::auth_challenge: parsed = decode_auth_challenge(cut).has_value(); break;
        case MessageType::auth_response: parsed = decode_auth_response(cut).has_value(); break;
        case MessageType::file_request: parsed = decode_file_request(cut).has_value(); break;
        case MessageType::stop_transmission: parsed = decode_stop_transmission(cut).has_value(); break;
        case MessageType::coded_message: parsed = decode_coded_message(cut).has_value(); break;
        case MessageType::authenticated_message: parsed = decode_authenticated_message(cut).has_value(); break;
        case MessageType::file_info: parsed = decode_file_info(cut).has_value(); break;
      }
      EXPECT_FALSE(parsed) << "truncation to " << len << " bytes parsed";
    }
  }
}

TEST(Wire, TrailingGarbageRejected) {
  auto frame = encode(sample_coded());
  frame.push_back(std::byte{0});
  EXPECT_FALSE(decode_coded_message(frame).has_value());
}

TEST(Wire, CorruptLengthPrefixesRejectedNotCrash) {
  // Mutate every byte of a blob-bearing frame; decoding must never crash
  // and oversized length prefixes must fail cleanly.
  const auto base = encode(sample_authenticated());
  sim::SplitMix64 rng(5);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    auto mutated = base;
    mutated[pos] ^= std::byte{static_cast<std::uint8_t>(1 + rng.next_below(255))};
    (void)decode_authenticated_message(mutated);  // must be total
  }
  // Specifically blow up the payload length field (offset 17..20).
  auto huge = base;
  huge[17] = std::byte{0xFF};
  huge[18] = std::byte{0xFF};
  huge[19] = std::byte{0xFF};
  huge[20] = std::byte{0xFF};
  EXPECT_FALSE(decode_authenticated_message(huge).has_value());
}

TEST(Wire, RandomBuffersNeverParseAsAuth) {
  sim::SplitMix64 rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> junk(rng.next_below(120));
    for (auto& b : junk)
      b = std::byte{static_cast<std::uint8_t>(rng.next())};
    if (!junk.empty())
      junk[0] = std::byte{static_cast<std::uint8_t>(2)};  // claim challenge
    const auto parsed = decode_auth_challenge(junk);
    if (parsed) {
      // Structurally valid by luck is acceptable; the signature still
      // cannot verify — just ensure no crash and sane sizes.
      EXPECT_LE(parsed->signature.size(), junk.size());
    }
  }
}

TEST(Wire, PeekTypeRejectsUnknownTags) {
  EXPECT_FALSE(peek_type({}).has_value());
  const std::vector<std::byte> unknown{std::byte{0x7F}};
  EXPECT_FALSE(peek_type(unknown).has_value());
  const std::vector<std::byte> zero{std::byte{0}};
  EXPECT_FALSE(peek_type(zero).has_value());
}

TEST(Wire, FigureThreeLayoutCompatibility) {
  // EncodedMessage::serialize() is the raw Figure 3 layout (16-byte header
  // + payload); the framed wire adds 1 type byte + 4 length bytes.
  const auto m = sample_coded();
  EXPECT_EQ(encode(m).size(), m.wire_size() + 5);
}

}  // namespace
}  // namespace fairshare::p2p::wire
