// Encoder-specific behaviors beyond the codec round trips.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "crypto/md5.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding {
namespace {

SecretKey secret(std::uint8_t tag) {
  SecretKey s{};
  s[0] = tag;
  return s;
}

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

const CodingParams kParams{gf::FieldId::gf2_32, 64};

TEST(Encoder, MessageIdsAreDeterministic) {
  const auto data = blob(3000, 1);
  FileEncoder a(secret(1), 1, data, kParams);
  FileEncoder b(secret(1), 1, data, kParams);
  const auto ma = a.generate(2 * a.k());
  const auto mb = b.generate(2 * b.k());
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].message_id, mb[i].message_id);
    EXPECT_EQ(ma[i].payload, mb[i].payload);
  }
}

// The dense stream is pinned byte for byte: message ids (so the screening
// skips) and one MD5 over the concatenated serialize() images of the
// first 2k messages.  These values were recorded from the dense encoder
// before it became the one-class case of chunked::Encoder.
struct GoldenStream {
  gf::FieldId field;
  std::size_t m;
  std::size_t bytes;
  std::uint64_t data_seed;
  std::uint64_t file_id;
  std::size_t k;
  /// The ids of the first 2k messages, as half-open runs [first, last).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> id_runs;
  std::string md5;
};

TEST(Encoder, GoldenDenseStreams) {
  SecretKey key{};
  key[0] = 0x60;
  key[31] = 0x1d;
  const GoldenStream streams[] = {
      // Odd k on the nibble-packed field; screening skips ids 125 and 126.
      {gf::FieldId::gf2_4, 128, 4000, 41, 0x601E1, 63,
       {{0, 125}, {127, 128}}, "e69331c6b134aea04079dfd17632b457"},
      {gf::FieldId::gf2_8, 64, 6350, 42, 0x601D8, 100, {{0, 200}},
       "5f27777d7fceb9fdd42c9a9c3b0c5d9d"},
      // 1 MiB at the paper's defaults.
      {gf::FieldId::gf2_32, 32768, 1u << 20, 43, 0x601D32, 8, {{0, 16}},
       "4b0a50cce6e89d3285ce9b28352f2a1a"},
  };
  for (const GoldenStream& g : streams) {
    SCOPED_TRACE(gf::field_name(g.field));
    const auto data = blob(g.bytes, g.data_seed);
    FileEncoder enc(key, g.file_id, data, CodingParams{g.field, g.m});
    ASSERT_EQ(enc.k(), g.k);
    std::vector<std::uint64_t> want_ids;
    for (const auto& [first, last] : g.id_runs)
      for (std::uint64_t id = first; id < last; ++id) want_ids.push_back(id);

    std::vector<std::uint64_t> ids;
    crypto::Md5 md5;
    for (const EncodedMessage& msg : enc.generate(2 * g.k)) {
      ids.push_back(msg.message_id);
      md5.update(std::span<const std::byte>(msg.serialize()));
    }
    EXPECT_EQ(ids, want_ids);
    EXPECT_EQ(crypto::to_hex(md5.finish()), g.md5);
  }
}

// The chunked stream is pinned the same way, over overlapping classes of
// 16 chunks sharing 4 (so several classes take each batch and the last
// class is short).  The payload lengths leave a tail past the SIMD
// kernels' block on every field.  Recorded from the encoder that computed
// each payload with one axpy per class chunk.
TEST(Encoder, GoldenChunkedStreams) {
  SecretKey key{};
  key[0] = 0x61;
  key[31] = 0x2c;
  const GoldenStream streams[] = {
      {gf::FieldId::gf2_8, 72, 3500, 44, 0x602C8, 49, {{0, 98}},
       "6d951fe58957aa2d45598270506115af"},
      {gf::FieldId::gf2_16, 100, 9000, 45, 0x602C16, 45, {{0, 90}},
       "3442260249a02ffbb06b371f6c3fa4f6"},
      {gf::FieldId::gf2_32, 96, 19000, 46, 0x602C32, 50, {{0, 100}},
       "253fb9cbfd3106e1386089be16efb9ef"},
  };
  for (const GoldenStream& g : streams) {
    SCOPED_TRACE(gf::field_name(g.field));
    const auto data = blob(g.bytes, g.data_seed);
    chunked::Encoder enc(key, g.file_id, data, CodingParams{g.field, g.m},
                         ChunkedSchedule{16, 4, 7});
    ASSERT_EQ(enc.k(), g.k);
    ASSERT_GT(enc.class_map().classes(), 3u);
    std::vector<std::uint64_t> want_ids;
    for (const auto& [first, last] : g.id_runs)
      for (std::uint64_t id = first; id < last; ++id) want_ids.push_back(id);

    std::vector<std::uint64_t> ids;
    crypto::Md5 md5;
    for (const EncodedMessage& msg : enc.generate(2 * g.k)) {
      ids.push_back(msg.message_id);
      md5.update(std::span<const std::byte>(msg.serialize()));
    }
    EXPECT_EQ(ids, want_ids);
    EXPECT_EQ(crypto::to_hex(md5.finish()), g.md5);
  }
}

// A batch many times the encoder's per-thread grain: a 4 MiB file of
// GF(2^32) messages at m = 8192 (four 8 KiB product strips each) in classes
// of 64 sharing 8, so three classes (the last 16 wide) take one peer's
// share, generate(k): about 244 MiB of product.  Recorded from the
// single-threaded encoder.  The content digest, the digest table and a
// full decode are checked on the same encoder.
TEST(Encoder, GoldenMultiGrainChunkedStream) {
  SecretKey key{};
  key[0] = 0x62;
  key[31] = 0x3e;
  const GoldenStream g{gf::FieldId::gf2_32, 8192, 4u << 20, 47, 0x603E32,
                       128, {{0, 128}}, "330bd50384f767d91b4e9fb830299bc0"};
  const auto data = blob(g.bytes, g.data_seed);
  chunked::Encoder enc(key, g.file_id, data, CodingParams{g.field, g.m},
                       ChunkedSchedule{64, 8, 11});
  ASSERT_EQ(enc.k(), g.k);
  ASSERT_EQ(enc.class_map().classes(), 3u);
  std::vector<std::uint64_t> want_ids;
  for (const auto& [first, last] : g.id_runs)
    for (std::uint64_t id = first; id < last; ++id) want_ids.push_back(id);

  const std::vector<EncodedMessage> messages = enc.generate(g.k);
  std::vector<std::uint64_t> ids;
  crypto::Md5 md5;
  for (const EncodedMessage& msg : messages) {
    ids.push_back(msg.message_id);
    md5.update(std::span<const std::byte>(msg.serialize()));
  }
  EXPECT_EQ(ids, want_ids);
  EXPECT_EQ(crypto::to_hex(md5.finish()), g.md5);

  EXPECT_EQ(enc.info().content_digest,
            crypto::Md5::hash(std::span<const std::byte>(data)));
  ASSERT_EQ(enc.info().message_digests.size(), messages.size());
  for (const EncodedMessage& msg : messages)
    EXPECT_EQ(enc.info().message_digests.at(msg.message_id), msg.digest());

  CodecDecoder dec(key, enc.info());
  for (const EncodedMessage& msg : messages)
    EXPECT_EQ(dec.add(msg), AddResult::accepted);
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.reconstruct(), data);
}

TEST(Encoder, PayloadDependsOnData) {
  const auto d1 = blob(3000, 2);
  auto d2 = d1;
  d2[100] ^= std::byte{1};
  FileEncoder a(secret(1), 1, d1, kParams);
  FileEncoder b(secret(1), 1, d2, kParams);
  EXPECT_NE(a.generate(1)[0].payload, b.generate(1)[0].payload);
}

TEST(Encoder, InfoTracksGeneratedDigests) {
  const auto data = blob(3000, 3);
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_TRUE(enc.info().message_digests.empty());
  enc.generate(3);
  EXPECT_EQ(enc.info().message_digests.size(), 3u);
  enc.generate(2);
  EXPECT_EQ(enc.info().message_digests.size(), 5u);
  EXPECT_EQ(enc.messages_generated(), 5u);
}

TEST(Encoder, BatchDigestsMatchEachMessage) {
  // generate() digests a batch with one multi-lane MD5 pass; each entry of
  // the table must still be the message's own (scalar) digest, for batches
  // that are one message, under, exactly and past one 16-lane pass, and 2k.
  const auto data = blob(3000, 5);
  const std::size_t k = FileEncoder(secret(1), 1, data, kParams).k();
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{16},
                        std::size_t{17}, 2 * k}) {
    SCOPED_TRACE(n);
    FileEncoder enc(secret(1), 1, data, kParams);
    const auto messages = enc.generate(n);
    ASSERT_EQ(enc.info().message_digests.size(), n);
    for (const EncodedMessage& msg : messages)
      EXPECT_EQ(enc.info().message_digests.at(msg.message_id), msg.digest());
  }
}

TEST(Encoder, ContentDigestMatchesInput) {
  const auto data = blob(3000, 4);
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_EQ(enc.info().content_digest,
            crypto::Md5::hash(std::span<const std::byte>(data)));
}

TEST(Encoder, KMatchesParamsArithmetic) {
  for (std::size_t bytes : {1u, 255u, 256u, 257u, 4096u, 10000u}) {
    const auto data = blob(bytes, 5);
    FileEncoder enc(secret(1), 1, data, kParams);
    EXPECT_EQ(enc.k(), chunks_for_bytes(bytes, kParams)) << bytes;
    EXPECT_EQ(enc.info().original_bytes, bytes);
  }
}

TEST(Encoder, SingleByteFile) {
  const std::vector<std::byte> data{std::byte{0xAB}};
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_EQ(enc.k(), 1u);
  const auto msg = enc.generate(1)[0];
  EXPECT_EQ(msg.payload.size(), kParams.message_bytes());
}

TEST(Encoder, PayloadSizesUniformAcrossFields) {
  for (gf::FieldId field : gf::kAllFields) {
    const CodingParams params{field, 128};
    const auto data = blob(2000, 6);
    FileEncoder enc(secret(1), 1, data, params);
    const auto msg = enc.generate(1)[0];
    EXPECT_EQ(msg.payload.size(), params.message_bytes())
        << gf::field_name(field);
  }
}

TEST(Encoder, DifferentFilesSameSecretDiffer) {
  const auto data = blob(3000, 7);
  FileEncoder a(secret(1), 1, data, kParams);
  FileEncoder b(secret(1), 2, data, kParams);
  // Same data, same secret, different file id -> different coefficients.
  EXPECT_NE(a.generate(1)[0].payload, b.generate(1)[0].payload);
}

TEST(Encoder, ManyBatchesStayDecodableIndividually) {
  // Every batch of k consecutive generated messages is invertible (the
  // screening invariant) — verified over 8 batches via rank tracking.
  const CodingParams params{gf::FieldId::gf2_4, 64};  // small field: rank
                                                      // collisions do occur
  const auto data = blob(400, 8);
  FileEncoder enc(secret(1), 1, data, params);
  const std::size_t k = enc.k();
  const CoefficientGenerator gen(secret(1), 1, params, k);
  for (int batch = 0; batch < 8; ++batch) {
    linalg::ProgressiveSolver tracker(params.field, k, 0);
    for (const auto& msg : enc.generate(k))
      EXPECT_TRUE(tracker.add_row(gen.row(msg.message_id).data(), nullptr))
          << "batch " << batch;
    EXPECT_TRUE(tracker.complete());
  }
}

}  // namespace
}  // namespace fairshare::coding
