// Wire formats: exact round-trips, defensive parsing of truncated and
// mutated frames, and cross-type rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "hex.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"
#include "util/bytes.hpp"

namespace fairshare::p2p::wire {
namespace {

using test_support::from_hex;
using test_support::to_hex;

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

TEST(Wire, FileInfoMessageLargerThanAnyFrameIsRejected) {
  // Crafted but consistent geometry: one chunk of 2^50 GF(2^32) symbols
  // for a 1-byte file.  k = chunks_for_bytes holds, yet no coded_message
  // frame can carry a 4 PiB message, and a decoder built from it would
  // allocate that slot at once.
  const std::vector<std::byte> hostile = from_hex(
      "08070000000000000001000000000000002000000000000004000100000000000000"
      "0000000000000000000000000000000000000000");
  EXPECT_FALSE(decode_file_info(hostile).has_value());

  coding::FileInfo info;
  info.file_id = 7;
  info.original_bytes = 1;
  info.params = {gf::FieldId::gf2_32, std::uint64_t{1} << 50};
  info.k = 1;
  EXPECT_EQ(encode(info), hostile);

  // The largest message a frame holds still decodes; one symbol more does
  // not.
  info.params.m = (kMaxCodedFrameBytes - kCodedMessageHeaderBytes) / 4;
  EXPECT_TRUE(decode_file_info(encode(info)).has_value());
  info.params.m += 1;
  EXPECT_FALSE(decode_file_info(encode(info)).has_value());
}

TEST(Wire, FileInfoPastTheDecoderStateCapsIsRejected) {
  // Crafted but consistent geometry: a 1 PiB dense file of one-symbol
  // GF(2^32) messages, so k = 2^48.  Every message fits a frame, yet a
  // decoder built from it would make 2^48 slots at once.
  const std::vector<std::byte> hostile = from_hex(
      "08070000000000000000000000000004002001000000000000000000000000000100"
      "0000000000000000000000000000000000000000");
  EXPECT_FALSE(decode_file_info(hostile).has_value());

  coding::FileInfo info;
  info.file_id = 7;
  info.original_bytes = std::uint64_t{1} << 50;
  info.params = {gf::FieldId::gf2_32, 1};
  info.k = std::uint64_t{1} << 48;
  EXPECT_EQ(encode(info), hostile);

  const auto decodes = [](const coding::FileInfo& i) {
    return decode_file_info(encode(i)).has_value();
  };
  const auto resize = [](coding::FileInfo& i, std::uint64_t bytes) {
    i.original_bytes = bytes;
    i.k = coding::chunks_for_bytes(bytes, i.params);
  };

  // Dense: the widest class is k.  A 1 GiB file at the paper's defaults is
  // the widest admitted; one byte more needs one chunk past the cap.
  coding::FileInfo dense;
  dense.params = coding::CodingParams::paper_defaults();
  const std::uint64_t chunk = dense.params.message_bytes();
  resize(dense, std::uint64_t{1} << 30);
  ASSERT_EQ(dense.k, kMaxClassWidth);
  EXPECT_TRUE(decodes(dense));
  resize(dense, (std::uint64_t{1} << 30) + 1);
  EXPECT_FALSE(decodes(dense)) << "dense k = kMaxClassWidth + 1";

  // Chunked: the widest class is min(k, class_size), so the same file in
  // classes of 64 decodes, up to kMaxChunks chunks in all.
  coding::FileInfo chunked = dense;
  chunked.codec = coding::CodecKind::chunked;
  EXPECT_TRUE(decodes(chunked));
  resize(chunked, kMaxChunks * chunk);
  EXPECT_TRUE(decodes(chunked));
  resize(chunked, kMaxChunks * chunk + 1);
  EXPECT_FALSE(decodes(chunked)) << "k = kMaxChunks + 1";

  // The decoder state, the sum over classes of the squared width, is
  // capped at one class of kMaxClassWidth: a wide class_size over a narrow
  // file is that one class, and one chunk more opens a second class.
  chunked.schedule.class_size = kMaxClassWidth;
  resize(chunked, kMaxClassWidth * chunk);
  EXPECT_TRUE(decodes(chunked)) << "a wide class_size over a narrow file";
  resize(chunked, kMaxClassWidth * chunk + 1);
  EXPECT_FALSE(decodes(chunked)) << "a second class past the state cap";
  resize(chunked, kMaxChunks * chunk);
  EXPECT_FALSE(decodes(chunked)) << "17 classes of kMaxClassWidth";
  chunked.schedule.class_size = kMaxClassWidth + 1;
  EXPECT_FALSE(decodes(chunked)) << "class_size = kMaxClassWidth + 1";
}

TEST(Wire, FileInfoOverlapPastTheDecoderStateCapIsRejected) {
  // Crafted chunked geometry inside the k and class-width caps: kMaxChunks
  // one-symbol GF(2^32) messages in classes of 64 at stride 1 (overlap
  // 63), so 131009 classes and about 4 GiB of solver rows.
  const std::vector<std::byte> hostile = from_hex(
      "08070000000000000000000800000000002001000000000000000000020000000000"
      "000000000000000000000000000000000000000001400000003f0000000000000000"
      "000000");
  EXPECT_FALSE(decode_file_info(hostile).has_value());

  coding::FileInfo info;
  info.file_id = 7;
  info.params = {gf::FieldId::gf2_32, 1};
  info.original_bytes = kMaxChunks * 4;
  info.k = kMaxChunks;
  info.codec = coding::CodecKind::chunked;
  info.schedule = {64, 63, 0};
  EXPECT_EQ(encode(info), hostile);

  // At stride 1, k chunks make k - 63 classes of 64, so 16447 chunks hold
  // exactly the cap (16384 classes of 64) and one more chunk is past it.
  info.original_bytes = 16447 * 4;
  info.k = 16447;
  EXPECT_TRUE(decode_file_info(encode(info)).has_value());
  info.original_bytes = 16448 * 4;
  info.k = 16448;
  EXPECT_FALSE(decode_file_info(encode(info)).has_value());
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
      encode(sample_info())};
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
  const auto base = encode(sample_response());
  sim::SplitMix64 rng(5);
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    auto mutated = base;
    mutated[pos] ^= std::byte{static_cast<std::uint8_t>(1 + rng.next_below(255))};
    (void)decode_auth_response(mutated);  // must be total
  }
  // Specifically blow up each blob's length field: the signature's
  // (offset 1..4) and the session key's (offset 8..11).
  for (const std::size_t at : {std::size_t{1}, std::size_t{8}}) {
    auto huge = base;
    for (std::size_t i = at; i < at + 4; ++i) huge[i] = std::byte{0xFF};
    EXPECT_FALSE(decode_auth_response(huge).has_value()) << "offset " << at;
  }
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

// Exact frames of the sample fixtures.  A layout change made on both the
// encode and the decode side passes every round trip above; only these
// catch it.  They were recorded from an earlier encoder, independent of
// the one under test: never regenerate them from the encoder.
constexpr const char* kGoldenHello =
    "018877665544332211000306090c0f1215181b1e2124272a2d303336393c3f42"
    "45484b4e5154575a5d";
constexpr const char* kGoldenChallenge =
    "022a00000000000000f0efeeedecebeae9e8e7e6e5e4e3e2e1e0dfdedddcdbda"
    "d9d8d7d6d5d4d3d2d10700000001020304050607";
constexpr const char* kGoldenResponse = "030300000009080702000000aabb";
constexpr const char* kGoldenFileRequest =
    "040b0000000000000016000000000000000000000000048840";
constexpr const char* kGoldenCodedMessage =
    "0507000000000000000d0000000000000004000000010203ff";
constexpr const char* kGoldenStop = "0603000000000000000400000000000000";
constexpr const char* kGoldenFileInfo =
    "08630000000000000040e2010000000000100010000000000000100000000000"
    "0000404142434445464748494a4b4c4d4e4f050000001c000000000000000400"
    "0000000000000000000000000000150000000000000003000000000000000000"
    "0000000000000e00000000000000020000000000000000000000000000000700"
    "0000000000000100000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000";
constexpr const char* kGoldenChunkedFileInfo =
    "08630000000000000040e2010000000000100010000000000000100000000000"
    "0000404142434445464748494a4b4c4d4e4f050000001c000000000000000400"
    "0000000000000000000000000000150000000000000003000000000000000000"
    "0000000000000e00000000000000020000000000000000000000000000000700"
    "0000000000000100000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000130000000060000008877665544332211";
/// MD5 over sample_coded()'s Figure 3 image (what FileInfo stores).
constexpr const char* kGoldenCodedDigest = "18e364410a0dab747bd552277d5ed87e";

coding::FileInfo sample_chunked_info() {
  auto info = sample_info();
  info.codec = coding::CodecKind::chunked;
  info.schedule.class_size = 48;
  info.schedule.overlap = 6;
  info.schedule.seed = 0x1122334455667788ull;
  return info;
}

/// Decode a frame with its type's decoder and encode the result again.
std::optional<std::vector<std::byte>> reencode(
    std::span<const std::byte> frame) {
  const auto again = [](const auto& decoded) {
    return decoded ? std::optional(encode(*decoded)) : std::nullopt;
  };
  switch (peek_type(frame).value_or(MessageType{})) {
    case MessageType::auth_hello:
      return again(decode_auth_hello(frame));
    case MessageType::auth_challenge:
      return again(decode_auth_challenge(frame));
    case MessageType::auth_response:
      return again(decode_auth_response(frame));
    case MessageType::file_request:
      return again(decode_file_request(frame));
    case MessageType::coded_message:
      return again(decode_coded_message(frame));
    case MessageType::stop_transmission:
      return again(decode_stop_transmission(frame));
    case MessageType::file_info:
      return again(decode_file_info(frame));
  }
  return std::nullopt;
}

/// `frame` with a file_info digest table sorted by entry.  The encoder
/// writes the table in unordered_map iteration order, and a decode
/// rebuilds the map in frame order, so decode + re-encode may permute the
/// entries (it reverses sample_info()'s five); every other byte stays.
std::vector<std::byte> sort_digest_table(std::vector<std::byte> frame) {
  if (peek_type(frame) != MessageType::file_info) return frame;
  constexpr std::size_t kCountAt = 1 + 8 + 8 + 1 + 8 + 8 + 16;
  using Entry = std::array<std::byte, 8 + sizeof(crypto::Md5Digest)>;
  std::byte* table = frame.data() + kCountAt + 4;
  std::vector<Entry> entries(
      util::load_le<std::uint32_t>(frame.data() + kCountAt));
  std::memcpy(entries.data(), table, entries.size() * sizeof(Entry));
  std::sort(entries.begin(), entries.end());
  std::memcpy(table, entries.data(), entries.size() * sizeof(Entry));
  return frame;
}

TEST(Wire, GoldenFramesOfEveryType) {
  const std::pair<std::vector<std::byte>, const char*> cases[] = {
      {encode(sample_hello()), kGoldenHello},
      {encode(sample_challenge()), kGoldenChallenge},
      {encode(sample_response()), kGoldenResponse},
      {encode(FileRequest{11, 22, 768.5}), kGoldenFileRequest},
      {encode(sample_coded()), kGoldenCodedMessage},
      {encode(StopTransmission{3, 4}), kGoldenStop},
      {encode(sample_info()), kGoldenFileInfo},
      {encode(sample_chunked_info()), kGoldenChunkedFileInfo},
  };
  for (const auto& [frame, golden] : cases) {
    EXPECT_EQ(to_hex(frame), golden);
    const auto again = reencode(from_hex(golden));
    ASSERT_TRUE(again.has_value()) << golden;
    EXPECT_EQ(to_hex(sort_digest_table(*again)),
              to_hex(sort_digest_table(from_hex(golden))))
        << "decode + re-encode moved a byte";
  }
}

TEST(Wire, GoldenCodedMessageDigest) {
  EXPECT_EQ(to_hex(sample_coded().digest()), kGoldenCodedDigest);
}

}  // namespace
}  // namespace fairshare::p2p::wire
