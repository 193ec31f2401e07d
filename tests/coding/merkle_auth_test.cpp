// Merkle authentication layered under the codec (metadata-light mode).
#include <gtest/gtest.h>

#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "coding/merkle_auth.hpp"
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

const CodingParams kParams{gf::FieldId::gf2_32, 64};

struct Batch {
  std::vector<std::byte> data;
  FileEncoder encoder;
  std::vector<EncodedMessage> messages;

  explicit Batch(std::uint64_t seed, std::size_t messages_wanted = 0)
      : data(random_data(4000, seed)),
        encoder(secret(1), 1, data, kParams),
        messages(encoder.generate(messages_wanted ? messages_wanted
                                                  : encoder.k())) {}
};

TEST(MerkleAuth, AttachedProofsVerify) {
  Batch b(1, 20);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());
  const auto authenticated = auth.attach_all(b.messages);
  ASSERT_EQ(authenticated.size(), 20u);
  for (const auto& am : authenticated) EXPECT_TRUE(verifier.verify(am));
}

TEST(MerkleAuth, TamperedPayloadRejected) {
  Batch b(2);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());
  auto am = auth.attach(b.messages[0], 0);
  am.message.payload[7] ^= std::byte{1};
  EXPECT_FALSE(verifier.verify(am));
}

TEST(MerkleAuth, TamperedMessageIdRejected) {
  Batch b(3);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());
  auto am = auth.attach(b.messages[0], 0);
  am.message.message_id += 1;
  EXPECT_FALSE(verifier.verify(am));
}

TEST(MerkleAuth, SwappedIndexRejected) {
  Batch b(4);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());
  auto am = auth.attach(b.messages[0], 0);
  am.leaf_index = 1;  // claim a different position
  EXPECT_FALSE(verifier.verify(am));
}

TEST(MerkleAuth, ForeignRootRejected) {
  Batch b1(5), b2(6);
  MerkleAuthenticator auth1(b1.messages);
  MerkleAuthenticator auth2(b2.messages);
  MerkleVerifier verifier(auth2.root(), auth2.leaf_count());
  EXPECT_FALSE(verifier.verify(auth1.attach(b1.messages[0], 0)));
}

TEST(MerkleAuth, DecodesWithoutDigestTable) {
  // The full metadata-light path: user carries only root + leaf count;
  // every message is Merkle-verified, then fed to a digestless decoder.
  Batch b(7);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());

  FileInfo info = b.encoder.info();
  info.message_digests.clear();  // nothing carried per message
  CodecDecoder decoder(secret(1), info, /*require_digests=*/false);

  for (const auto& am : auth.attach_all(b.messages)) {
    ASSERT_TRUE(verifier.verify(am));
    decoder.add(am.message);
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), b.data);
}

TEST(MerkleAuth, TampererCannotSneakPastVerifierIntoDecoder) {
  Batch b(8);
  MerkleAuthenticator auth(b.messages);
  MerkleVerifier verifier(auth.root(), auth.leaf_count());
  FileInfo info = b.encoder.info();
  info.message_digests.clear();
  CodecDecoder decoder(secret(1), info, /*require_digests=*/false);

  auto authenticated = auth.attach_all(b.messages);
  authenticated[0].message.payload[0] ^= std::byte{0xFF};  // corrupt one
  std::size_t rejected = 0;
  for (const auto& am : authenticated) {
    if (!verifier.verify(am)) {
      ++rejected;
      continue;
    }
    decoder.add(am.message);
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_FALSE(decoder.complete());  // short one message, but never corrupt
}

TEST(MerkleAuth, MetadataFootprintBeatsDigestTable) {
  // The future-work goal quantified: user-carried bytes shrink from
  // 16 * n to 36 while per-message wire overhead stays logarithmic.
  Batch b(9, 64);
  MerkleAuthenticator auth(b.messages);
  const std::size_t digest_table_bytes = b.messages.size() * 16;
  const std::size_t merkle_carried_bytes = 32 + 4;  // root + leaf count
  EXPECT_LT(merkle_carried_bytes, digest_table_bytes);

  const auto am = auth.attach(b.messages[10], 10);
  EXPECT_EQ(am.proof.size(), 6u);  // log2(64)
  EXPECT_EQ(am.auth_overhead_bytes(), 4u + 6u * 32u);
}

}  // namespace
}  // namespace fairshare::coding
