// RFC 1321 test suite plus incremental-hashing behavior, and every
// md5_many tier held to the scalar Md5.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"

namespace fairshare::crypto {
namespace {

std::string md5_hex(std::string_view s) { return to_hex(Md5::hash(s)); }

TEST(Md5, Rfc1321TestSuite) {
  EXPECT_EQ(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5_hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5_hex("1234567890123456789012345678901234567890123456789012345"
                    "6789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, GoldenDigestsAcrossLengths) {
  // Pins the block function bit for bit: the digest of a fixed byte
  // pattern at every length from 0 to 300 (every padding case, up to five
  // blocks) and at one 128 KiB coded-message payload, folded into one
  // SHA-256.  The value was recorded from the table-driven round loop the
  // unrolled one replaced.
  std::vector<std::uint8_t> pattern(131072);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i * 167 + (i >> 8) + 13);
  Sha256 fold;
  for (std::size_t len = 0; len <= 300; ++len)
    fold.update(Md5::hash(std::span<const std::uint8_t>(pattern.data(), len)));
  fold.update(Md5::hash(std::span<const std::uint8_t>(pattern)));
  EXPECT_EQ(to_hex(fold.finish()),
            "3fce5bad57527f5d45479ed789125f81"
            "2c3210a746c7c80f5d30864bc2913d98");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Md5 h;
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), split));
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()) + split,
        msg.size() - split));
    EXPECT_EQ(to_hex(h.finish()), md5_hex(msg)) << "split at " << split;
  }
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Md5 one;
    one.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    const auto d1 = one.finish();

    Md5 bytewise;
    for (char c : msg) {
      const auto b = static_cast<std::uint8_t>(c);
      bytewise.update(std::span<const std::uint8_t>(&b, 1));
    }
    EXPECT_EQ(bytewise.finish(), d1) << "len " << len;
  }
}

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("garbage"), 7));
  h.reset();
  const auto empty = h.finish();
  EXPECT_EQ(to_hex(empty), "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(Md5, DistinctInputsDistinctDigests) {
  EXPECT_NE(Md5::hash("abc"), Md5::hash("abd"));
  EXPECT_NE(Md5::hash("abc"), Md5::hash("abc "));
}

TEST(Md5, ByteSpanOverloadMatchesString) {
  const std::string s = "abc";
  const auto bytes = std::as_bytes(std::span(s.data(), s.size()));
  EXPECT_EQ(Md5::hash(bytes), Md5::hash(s));
}

// Md5 over head then body: the reference every md5_many tier must equal.
Md5Digest reference(const Md5Input& in) {
  Md5 h;
  h.update(in.head);
  h.update(in.body);
  return h.finish();
}

TEST(Md5Many, EveryTierMatchesMd5) {
  // Lane counts that under-fill, fill and spill past a 16-lane pass; bodies
  // around every padding boundary up to one 128 KiB coded payload; heads of
  // none, a coded message's 16 id bytes, and more than one block.  Every
  // head and body starts at an odd address, and no body follows its head in
  // memory, so a tier cannot read one stream where it should join two.
  constexpr std::size_t kMaxLanes = 33;
  constexpr std::size_t kMaxHead = 70;
  constexpr std::size_t kMaxBody = 131072;
  constexpr std::size_t kStride = kMaxHead + kMaxBody + 3;
  std::vector<std::byte> pool(kMaxLanes * kStride + 1);
  for (std::size_t i = 0; i < pool.size(); ++i)
    pool[i] = std::byte{static_cast<std::uint8_t>(i * 131 + (i >> 9) + 7)};

  ASSERT_STREQ(md5_tiers().front().name, "scalar");
  for (const Md5Tier& tier : md5_tiers()) {
    for (std::size_t lanes : {1u, 2u, 15u, 16u, 17u, 33u}) {
      for (std::size_t body :
           {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 4096u, 131072u}) {
        for (std::size_t head : {0u, 16u, 70u}) {
          SCOPED_TRACE(::testing::Message()
                       << tier.name << " lanes=" << lanes << " head=" << head
                       << " body=" << body);
          std::vector<Md5Input> inputs(lanes);
          std::vector<Md5Digest> expected(lanes);
          for (std::size_t i = 0; i < lanes; ++i) {
            const std::byte* at = pool.data() + i * kStride + 1;
            inputs[i].head = {at, head};
            inputs[i].body = {at + head + 1, body};
            expected[i] = reference(inputs[i]);
          }
          EXPECT_EQ(tier.run(inputs), expected);
          EXPECT_EQ(md5_many(inputs), expected);
        }
      }
    }
  }
}

TEST(Md5Many, OneInputInSeveralLanes) {
  // The same bytes in several lanes (a peer resending one frame) hash alike
  // in each, next to other inputs.
  std::vector<std::byte> a(16 + 1000), b(16 + 1000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::byte{static_cast<std::uint8_t>(i)};
    b[i] = std::byte{static_cast<std::uint8_t>(i * 7 + 1)};
  }
  const Md5Input x{{a.data(), 16}, {a.data() + 16, 1000}};
  const Md5Input y{{b.data(), 16}, {b.data() + 16, 1000}};
  const std::vector<Md5Input> inputs = {x, y, x, x, y, x, x, x, x,
                                        x, y, x, x, x, x, x, x, x};
  for (const Md5Tier& tier : md5_tiers()) {
    const std::vector<Md5Digest> out = tier.run(inputs);
    ASSERT_EQ(out.size(), inputs.size()) << tier.name;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      EXPECT_EQ(out[i], reference(inputs[i])) << tier.name << " lane " << i;
  }
}

TEST(Md5Many, EmptyBatch) {
  for (const Md5Tier& tier : md5_tiers()) EXPECT_TRUE(tier.run({}).empty());
  EXPECT_TRUE(md5_many({}).empty());
}

TEST(ToHex, FormatsLowercasePairs) {
  const std::array<std::uint8_t, 4> data{0x00, 0x0f, 0xa0, 0xff};
  EXPECT_EQ(to_hex(data), "000fa0ff");
}

}  // namespace
}  // namespace fairshare::crypto
