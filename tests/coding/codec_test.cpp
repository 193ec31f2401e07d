// End-to-end encoder/decoder behavior: the heart of Section III.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding {
namespace {

SecretKey secret(std::uint8_t tag) {
  SecretKey s{};
  s[0] = tag;
  return s;
}

std::vector<std::byte> random_data(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

struct CodecCase {
  gf::FieldId field;
  // gtest prints this parameter as a dump of its bytes and ctest takes the
  // dump into each test's name.  Left as padding, these bytes would carry
  // stack garbage and change the names from one process to the next.
  std::array<std::uint8_t, 7> zero_pad{};
  std::size_t m;
  std::size_t data_bytes;
};
static_assert(std::has_unique_object_representations_v<CodecCase>);

class CodecTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecTest, ExactlyKMessagesSuffice) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 1);
  FileEncoder encoder(secret(1), 100, data, params);
  const std::size_t k = encoder.k();

  // The first k screened messages form a batch guaranteed invertible.
  const auto messages = encoder.generate(k);
  CodecDecoder decoder(secret(1), encoder.info());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(decoder.add(messages[i]), AddResult::accepted) << i;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(decoder.accepted(), k);
}

TEST_P(CodecTest, CrossBatchMixDecodes) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 2);
  FileEncoder encoder(secret(2), 7, data, params);
  const std::size_t k = encoder.k();

  // Generate 3 batches and feed an interleaved subset; the decoder keeps
  // requesting until rank k (non-innovative rows are simply skipped).
  auto messages = encoder.generate(3 * k);
  std::reverse(messages.begin(), messages.end());
  CodecDecoder decoder(secret(2), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    if (decoder.complete()) break;
    decoder.add(msg);
    ++fed;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_GE(fed, k);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecTest,
    ::testing::Values(
        CodecCase{.field = gf::FieldId::gf2_4, .m = 256, .data_bytes = 2000},
        CodecCase{.field = gf::FieldId::gf2_8, .m = 128, .data_bytes = 2000},
        CodecCase{.field = gf::FieldId::gf2_16, .m = 64, .data_bytes = 2000},
        CodecCase{.field = gf::FieldId::gf2_32, .m = 32, .data_bytes = 2000},
        CodecCase{.field = gf::FieldId::gf2_32, .m = 64, .data_bytes = 40000},
        CodecCase{.field = gf::FieldId::gf2_8, .m = 64, .data_bytes = 1}),
    [](const auto& info) {
      std::string name = "q";
      name += std::to_string(gf::field_bits(info.param.field));
      name += "m" + std::to_string(info.param.m);
      name += "b" + std::to_string(info.param.data_bytes);
      return name;
    });

TEST(Codec, WrongSecretProducesGarbage) {
  // Security (Section III-C): without the right secret the coefficient
  // rows are wrong and reconstruction does not match.
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(3000, 3);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  CodecDecoder decoder(secret(99), encoder.info());  // wrong key
  for (const auto& m : messages) decoder.add(m);
  if (decoder.complete()) {
    EXPECT_NE(decoder.reconstruct(), data);
  }
}

TEST(Codec, TamperedPayloadRejectedByDigest) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 4);
  FileEncoder encoder(secret(1), 1, data, params);
  auto messages = encoder.generate(encoder.k());

  messages[0].payload[3] ^= std::byte{0xFF};
  CodecDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
  EXPECT_EQ(decoder.rejected_auth(), 1u);
  for (std::size_t i = 1; i < messages.size(); ++i) decoder.add(messages[i]);
  EXPECT_FALSE(decoder.complete());  // one message short
}

TEST(Codec, ForgedMessageIdRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 5);
  FileEncoder encoder(secret(1), 1, data, params);
  auto messages = encoder.generate(encoder.k());
  messages[0].message_id = 12345678;  // id never emitted by the encoder
  CodecDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
}

TEST(Codec, UnknownIdsAcceptedWhenDigestsNotRequired) {
  // Experiment mode: user did not carry the digest table.
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 6);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(encoder.k());
  FileInfo info = encoder.info();
  info.message_digests.clear();
  CodecDecoder decoder(secret(1), info, /*require_digests=*/false);
  for (const auto& m : messages) decoder.add(m);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
}

TEST(Codec, WrongFileIdRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(1000, 7);
  FileEncoder enc_a(secret(1), 1, data, params);
  FileEncoder enc_b(secret(1), 2, data, params);
  const auto msg_b = enc_b.generate(1)[0];
  CodecDecoder decoder(secret(1), enc_a.info());
  EXPECT_EQ(decoder.add(msg_b), AddResult::wrong_file);
}

TEST(Codec, WrongPayloadSizeRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(1000, 8);
  FileEncoder encoder(secret(1), 1, data, params);
  auto msg = encoder.generate(1)[0];
  msg.payload.resize(msg.payload.size() - 4);
  CodecDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(msg), AddResult::bad_size);
}

TEST(Codec, DuplicateMessageNotInnovative) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 9);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(2);
  CodecDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::accepted);
  EXPECT_EQ(decoder.add(messages[0]), AddResult::non_innovative);
  EXPECT_EQ(decoder.non_innovative(), 1u);
}

TEST(Codec, MessagesAfterCompletionIgnored) {
  const CodingParams params{gf::FieldId::gf2_32, 128};
  const auto data = random_data(600, 10);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  const auto messages = encoder.generate(k + 1);
  CodecDecoder decoder(secret(1), encoder.info());
  for (std::size_t i = 0; i < k; ++i) decoder.add(messages[i]);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.add(messages[k]), AddResult::already_complete);
}

// What one add() call of a batch, or one-at-a-time adds in the same order,
// returned and counted.
struct Outcome {
  std::vector<AddResult> verdicts;
  std::size_t accepted, non_innovative, rejected_auth, rank;
  bool complete;
  bool operator==(const Outcome&) const = default;
};

Outcome tally(const CodecDecoder& d, std::vector<AddResult> verdicts) {
  return {std::move(verdicts), d.accepted(), d.non_innovative(),
          d.rejected_auth(), d.rank(), d.complete()};
}

TEST(Codec, BatchAgreesWithOneAtATime) {
  // One batch mixing every verdict a message can earn before the decode
  // completes: a wrong file, a short payload, an id the owner never
  // emitted, a flipped payload byte, a duplicate and innovative rows.
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 21);
  FileEncoder encoder(secret(1), 1, data, params);
  FileEncoder other(secret(1), 2, data, params);
  const auto good = encoder.generate(encoder.k() + 2);
  const FileInfo info = encoder.info();

  std::vector<EncodedMessage> mix;
  mix.push_back(good[0]);
  mix.push_back(other.generate(1)[0]);  // wrong_file
  mix.push_back(good[1]);
  EncodedMessage short_payload = good[2];
  short_payload.payload.resize(short_payload.payload.size() - 4);
  mix.push_back(short_payload);  // bad_size
  EncodedMessage unknown = good[2];
  unknown.message_id = 987654321;
  mix.push_back(unknown);  // no digest on file
  EncodedMessage flipped = good[3];
  flipped.payload[flipped.payload.size() / 2] ^= std::byte{0x10};
  mix.push_back(flipped);  // bad_digest
  mix.push_back(good[0]);  // duplicate: non_innovative
  for (std::size_t i = 2; i < good.size(); ++i) mix.push_back(good[i]);

  CodecDecoder serial(secret(1), info);
  std::vector<AddResult> one_by_one;
  for (const EncodedMessage& m : mix) one_by_one.push_back(serial.add(m));

  CodecDecoder batched(secret(1), info);
  std::vector<EncodedMessageView> views;
  for (const EncodedMessage& m : mix) views.push_back(m.view());
  const Outcome got = tally(batched, batched.add(views));

  const Outcome want = tally(serial, one_by_one);
  EXPECT_EQ(got, want);
  EXPECT_EQ(want.verdicts[1], AddResult::wrong_file);
  EXPECT_EQ(want.verdicts[3], AddResult::bad_size);
  EXPECT_EQ(want.verdicts[4], AddResult::bad_digest);
  EXPECT_EQ(want.verdicts[5], AddResult::bad_digest);
  EXPECT_EQ(want.verdicts[6], AddResult::non_innovative);
  // The last good rows arrive after the decode completed.
  EXPECT_EQ(want.verdicts.back(), AddResult::already_complete);
  ASSERT_TRUE(want.complete);
  EXPECT_EQ(batched.reconstruct(), data);
}

TEST(Codec, FlippedByteRejectsOnlyItsOwnMessage) {
  // One byte flipped in the middle message of a batch of 16: only that
  // message fails its digest, its neighbours are accepted, nothing of it
  // reaches a class, and the file still decodes from the rest.
  const CodingParams params{gf::FieldId::gf2_32, 256};
  const auto data = random_data(15000, 22);  // k = 15
  FileEncoder encoder(secret(1), 1, data, params);
  ASSERT_EQ(encoder.k(), 15u);
  auto messages = encoder.generate(16);
  messages[8].payload[500] ^= std::byte{0x01};

  CodecDecoder decoder(secret(1), encoder.info());
  std::vector<EncodedMessageView> views;
  for (const EncodedMessage& m : messages) views.push_back(m.view());
  const std::vector<AddResult> verdicts = decoder.add(views);
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    EXPECT_EQ(verdicts[i],
              i == 8 ? AddResult::bad_digest : AddResult::accepted)
        << "message " << i;
  EXPECT_EQ(decoder.rejected_auth(), 1u);
  EXPECT_EQ(decoder.accepted(), 15u);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
}

TEST(Codec, RowsMissingCountsDown) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 23);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(encoder.k());
  CodecDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.rows_missing(), encoder.k());
  decoder.add(messages[0]);
  EXPECT_EQ(decoder.rows_missing(), encoder.k() - 1);
  for (const EncodedMessage& m : messages) decoder.add(m);
  EXPECT_EQ(decoder.rows_missing(), 0u);
}

TEST(Codec, EncoderScreeningRejectsFewIds) {
  // Skip probability per id is ~1/q; over GF(2^32) screening should
  // essentially never skip.
  const CodingParams params{gf::FieldId::gf2_32, 32};
  const auto data = random_data(4000, 11);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t want = 5 * encoder.k();
  encoder.generate(want);
  EXPECT_EQ(encoder.ids_examined(), want);
  EXPECT_EQ(encoder.messages_generated(), want);
}

TEST(Codec, Gf16ScreeningStillProducesDecodableBatches) {
  // Over GF(2^4) dependent rows genuinely occur; screening must skip them
  // and every batch must still decode with exactly k messages.
  const CodingParams params{gf::FieldId::gf2_4, 64};
  const auto data = random_data(500, 12);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  for (int batch = 0; batch < 4; ++batch) {
    const auto messages = encoder.generate(k);
    CodecDecoder decoder(secret(1), encoder.info());
    for (const auto& m : messages)
      EXPECT_EQ(decoder.add(m), AddResult::accepted);
    ASSERT_TRUE(decoder.complete()) << "batch " << batch;
    EXPECT_EQ(decoder.reconstruct(), data);
  }
}

TEST(Codec, InfoDigestAccounting) {
  const CodingParams params = CodingParams::paper_defaults();
  const auto data = random_data(1u << 20, 13);  // exactly 1 MB
  FileEncoder encoder(secret(1), 1, data, params);
  EXPECT_EQ(encoder.k(), 8u);
  encoder.generate(8);
  EXPECT_EQ(encoder.info().digest_bytes(), 128u);  // paper's claim
}

TEST(Codec, AddDigestAllowsLateMessages) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 15);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  const FileInfo early_info = encoder.info();  // no digests yet

  CodecDecoder decoder(secret(1), early_info);
  const auto messages = encoder.generate(k);
  // Without registration they fail authentication...
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
  // ...after fetching digests from the owner they pass.
  for (const auto& m : messages) decoder.add_digest(m.message_id, m.digest());
  for (const auto& m : messages) decoder.add(m);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
}

}  // namespace
}  // namespace fairshare::coding
