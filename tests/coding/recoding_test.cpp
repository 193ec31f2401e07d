// Peer-side recoding (the rejected design alternative) and its decode path.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "coding/recoding.hpp"
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

TEST(Recoding, RecodedPacketsDecodeTheFile) {
  const auto data = random_data(4000, 1);
  FileEncoder encoder(secret(1), 1, data, kParams);
  const std::size_t k = encoder.k();
  const auto pool = encoder.generate(k);

  // A peer holding the whole pool emits recoded packets; the user decodes
  // from recoded packets alone.
  Recoder recoder(kParams);
  sim::SplitMix64 rng(2);
  CodecDecoder decoder(secret(1), encoder.info(), /*require_digests=*/false);
  std::size_t sent = 0;
  while (!decoder.complete() && sent < 3 * k) {
    const RecodedMessage packet = recoder.recode(pool, rng);
    decoder.add_recoded(packet);
    ++sent;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_LE(sent, k + 2);  // essentially every packet innovative
}

TEST(Recoding, MixedVerbatimAndRecodedDecode) {
  const auto data = random_data(4000, 5);
  FileEncoder encoder(secret(1), 1, data, kParams);
  const std::size_t k = encoder.k();
  const auto pool = encoder.generate(k);

  Recoder recoder(kParams);
  sim::SplitMix64 rng(6);
  CodecDecoder decoder(secret(1), encoder.info());
  // Half verbatim (digest-checked), half recoded.
  for (std::size_t i = 0; i < k / 2; ++i)
    EXPECT_EQ(decoder.add(pool[i]), AddResult::accepted);
  while (!decoder.complete())
    decoder.add_recoded(recoder.recode(pool, rng));
  EXPECT_EQ(decoder.reconstruct(), data);
}

TEST(Recoding, DefeatsCouponCollectorOnOverlappingStores) {
  // Two peers each hold the SAME k'-subset of the pool.  Verbatim
  // forwarding can never exceed rank k'; recoding cannot either (same
  // span!) — but with peers holding random overlapping subsets the span
  // union matters.  Model: 4 peers, each storing a random k/2 subset.
  const auto data = random_data(8000, 7);
  FileEncoder encoder(secret(1), 1, data, kParams);
  const std::size_t k = encoder.k();  // 32 chunks
  const auto pool = encoder.generate(k);

  // Build overlapping k/2-sized stores whose union covers the pool: deal
  // each message to one peer round-robin, then pad every store with random
  // other messages (the overlap that causes verbatim duplicates).
  sim::SplitMix64 rng(8);
  std::vector<std::vector<EncodedMessage>> stores(4);
  std::vector<std::set<std::size_t>> held(4);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    stores[i % 4].push_back(pool[i]);
    held[i % 4].insert(i);
  }
  for (std::size_t p = 0; p < 4; ++p) {
    while (stores[p].size() < k / 2) {
      const std::size_t pick = rng.next_below(pool.size());
      if (held[p].insert(pick).second) stores[p].push_back(pool[pick]);
    }
  }

  // Verbatim round-robin: duplicates across peers waste transmissions.
  CodecDecoder verbatim(secret(1), encoder.info());
  std::size_t verbatim_sent = 0;
  std::vector<std::size_t> cursor(4, 0);
  while (!verbatim.complete() && verbatim_sent < 200) {
    for (std::size_t p = 0; p < 4 && !verbatim.complete(); ++p) {
      if (cursor[p] >= stores[p].size()) continue;
      verbatim.add(stores[p][cursor[p]++]);
      ++verbatim_sent;
    }
    bool exhausted = true;
    for (std::size_t p = 0; p < 4; ++p)
      if (cursor[p] < stores[p].size()) exhausted = false;
    if (exhausted) break;
  }

  // Recoding round-robin: every packet spans the peer's whole store.
  Recoder recoder(kParams);
  CodecDecoder recoded(secret(1), encoder.info(), /*require_digests=*/false);
  std::size_t recoded_sent = 0;
  while (!recoded.complete() && recoded_sent < 200) {
    for (std::size_t p = 0; p < 4 && !recoded.complete(); ++p) {
      recoded.add_recoded(recoder.recode(stores[p], rng));
      ++recoded_sent;
    }
  }

  ASSERT_TRUE(recoded.complete());
  EXPECT_EQ(recoded.reconstruct(), data);
  if (verbatim.complete()) {
    // If verbatim got lucky with coverage it still used more sends.
    EXPECT_GE(verbatim_sent, recoded_sent);
  } else {
    // Typical outcome: duplicates starved the verbatim decoder.
    EXPECT_LT(verbatim.rank(), k);
  }
}

TEST(Recoding, WrongFileAndBadSizeRejected) {
  const auto data = random_data(2000, 9);
  FileEncoder encoder(secret(1), 1, data, kParams);
  const auto pool = encoder.generate(encoder.k());
  Recoder recoder(kParams);
  sim::SplitMix64 rng(10);
  CodecDecoder decoder(secret(1), encoder.info(), false);
  auto packet = recoder.recode(pool, rng);
  packet.file_id = 999;
  EXPECT_EQ(decoder.add_recoded(packet), AddResult::wrong_file);
  packet = recoder.recode(pool, rng);
  packet.payload.pop_back();
  EXPECT_EQ(decoder.add_recoded(packet), AddResult::bad_size);
}

TEST(Recoding, TamperedRecodedPacketCorruptsSilently) {
  // The security cost of recoding: a flipped byte is NOT caught by any
  // per-message digest; only the content digest catches it at the end.
  const auto data = random_data(4000, 11);
  FileEncoder encoder(secret(1), 1, data, kParams);
  const auto pool = encoder.generate(encoder.k());
  Recoder recoder(kParams);
  sim::SplitMix64 rng(12);
  CodecDecoder decoder(secret(1), encoder.info(), false);
  auto first = recoder.recode(pool, rng);
  first.payload[0] ^= std::byte{0x80};          // malicious peer
  EXPECT_EQ(decoder.add_recoded(first), AddResult::accepted);  // undetected!
  while (!decoder.complete())
    decoder.add_recoded(recoder.recode(pool, rng));
  const auto out = decoder.reconstruct();
  EXPECT_NE(out, data);  // corruption went through
  EXPECT_NE(crypto::Md5::hash(std::span<const std::byte>(out)),
            encoder.info().content_digest);  // ...but content digest catches it
}

}  // namespace
}  // namespace fairshare::coding
