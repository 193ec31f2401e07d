// The paper-literal batch decoder (invert the k x k sub-matrix), checked
// against the progressive decoder.
#include <gtest/gtest.h>

#include <vector>

#include "coding/batch_decoder.hpp"
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

class BatchDecoderTest : public ::testing::TestWithParam<gf::FieldId> {
 protected:
  CodingParams params() const { return CodingParams{GetParam(), 64}; }
};

TEST_P(BatchDecoderTest, DecodesExactlyLikeProgressive) {
  const auto data = random_data(3000, 1);
  FileEncoder encoder(secret(1), 1, data, params());
  const auto messages = encoder.generate(encoder.k());

  BatchDecoder batch(secret(1), encoder.info());
  CodecDecoder progressive(secret(1), encoder.info());
  for (const auto& m : messages) {
    EXPECT_EQ(batch.add(m), AddResult::accepted);
    progressive.add(m);
  }
  ASSERT_TRUE(batch.ready());
  const auto batch_out = batch.decode();
  ASSERT_TRUE(batch_out.has_value());
  ASSERT_TRUE(progressive.complete());
  EXPECT_EQ(*batch_out, progressive.reconstruct());
  EXPECT_EQ(*batch_out, data);
}

TEST_P(BatchDecoderTest, NotReadyBeforeKMessages) {
  const auto data = random_data(3000, 2);
  FileEncoder encoder(secret(1), 1, data, params());
  const auto messages = encoder.generate(encoder.k());
  BatchDecoder batch(secret(1), encoder.info());
  for (std::size_t i = 0; i + 1 < messages.size(); ++i)
    batch.add(messages[i]);
  EXPECT_FALSE(batch.ready());
  EXPECT_FALSE(batch.decode().has_value());
}

INSTANTIATE_TEST_SUITE_P(Fields, BatchDecoderTest,
                         ::testing::Values(gf::FieldId::gf2_8,
                                           gf::FieldId::gf2_16,
                                           gf::FieldId::gf2_32));

TEST(BatchDecoder, RejectsTamperAndDuplicates) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 3);
  FileEncoder encoder(secret(1), 1, data, params);
  auto messages = encoder.generate(encoder.k());
  BatchDecoder batch(secret(1), encoder.info());
  EXPECT_EQ(batch.add(messages[0]), AddResult::accepted);
  EXPECT_EQ(batch.add(messages[0]), AddResult::non_innovative);
  auto bad = messages[1];
  bad.payload[0] ^= std::byte{1};
  EXPECT_EQ(batch.add(bad), AddResult::bad_digest);
  bad = messages[1];
  bad.file_id = 999;
  EXPECT_EQ(batch.add(bad), AddResult::wrong_file);
}

TEST(BatchDecoder, SingularBufferRecoversWithFreshMessage) {
  // Force a dependent buffer over GF(2^4) by feeding messages from two
  // different batches until a singular draw appears; decode() must drop a
  // message and succeed after more arrive.  (Over GF(2^4) a random k x k
  // matrix is singular a few percent of the time, so we manufacture
  // dependence instead: feed the SAME batch but replace one message with a
  // cross-batch one whose row may collide.)  This test mostly exercises
  // the retry path compiles and behaves; the common case is covered above.
  const CodingParams params{gf::FieldId::gf2_4, 64};
  const auto data = random_data(500, 4);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  const auto pool = encoder.generate(4 * k);
  FileInfo info = encoder.info();

  BatchDecoder batch(secret(1), info);
  std::size_t fed = 0;
  for (const auto& m : pool) {
    if (batch.add(m) == AddResult::accepted) ++fed;
    if (batch.ready()) {
      const auto out = batch.decode();
      if (out) {
        EXPECT_EQ(*out, data);
        return;
      }
    }
  }
  FAIL() << "never decoded from " << fed << " buffered messages";
}

}  // namespace
}  // namespace fairshare::coding
