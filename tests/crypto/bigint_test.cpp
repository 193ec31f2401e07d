// BigUInt arithmetic: identities, division correctness, modular algebra,
// Montgomery exponentiation against a square-and-multiply reference, and
// primality testing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "sim/rng.hpp"

namespace fairshare::crypto {
namespace {

ChaCha20 make_rng(std::uint8_t tag) {
  std::array<std::uint8_t, 32> key{};
  key[0] = tag;
  std::array<std::uint8_t, 12> nonce{};
  return ChaCha20(key, nonce, 0);
}

TEST(BigUInt, ConstructionAndHexRoundTrip) {
  EXPECT_EQ(BigUInt{}.to_hex(), "0");
  EXPECT_EQ(BigUInt{1}.to_hex(), "1");
  EXPECT_EQ(BigUInt{0xdeadbeefull}.to_hex(), "deadbeef");
  EXPECT_EQ(BigUInt{0x123456789abcdef0ull}.to_hex(), "123456789abcdef0");
  const auto big = BigUInt::from_hex(
      "fedcba9876543210fedcba9876543210fedcba9876543210");
  EXPECT_EQ(big.to_hex(), "fedcba9876543210fedcba9876543210fedcba9876543210");
}

TEST(BigUInt, FromHexIgnoresLeadingZerosAndCase) {
  EXPECT_EQ(BigUInt::from_hex("000ff"), BigUInt{0xff});
  EXPECT_EQ(BigUInt::from_hex("ABCDEF"), BigUInt::from_hex("abcdef"));
  EXPECT_EQ(BigUInt::from_hex(""), BigUInt{});
}

TEST(BigUInt, BytesBeRoundTrip) {
  const auto v = BigUInt::from_hex("0102030405060708090a0b0c");
  const auto bytes = v.to_bytes_be();
  ASSERT_EQ(bytes.size(), 12u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[11], 0x0c);
  EXPECT_EQ(BigUInt::from_bytes_be(bytes), v);
}

TEST(BigUInt, BytesBePadding) {
  const BigUInt v{0xabcd};
  const auto padded = v.to_bytes_be(8);
  ASSERT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[0], 0);
  EXPECT_EQ(padded[6], 0xab);
  EXPECT_EQ(padded[7], 0xcd);
  EXPECT_EQ(BigUInt::from_bytes_be(padded), v);  // leading zeros trimmed
}

TEST(BigUInt, ComparisonOrdering) {
  EXPECT_LT(BigUInt{1}, BigUInt{2});
  EXPECT_LT(BigUInt{0xffffffffull}, BigUInt{0x100000000ull});
  EXPECT_GT(BigUInt::from_hex("10000000000000000"), BigUInt{~0ull});
  EXPECT_EQ(BigUInt{42}, BigUInt{42});
}

TEST(BigUInt, AddSubRoundTripRandom) {
  sim::SplitMix64 rng(1);
  ChaCha20 crng = make_rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto a = BigUInt::random_bits(1 + rng.next_below(200), crng);
    const auto b = BigUInt::random_bits(1 + rng.next_below(200), crng);
    const auto sum = a + b;
    EXPECT_EQ(sum - a, b);
    EXPECT_EQ(sum - b, a);
    EXPECT_GE(sum, a);
  }
}

TEST(BigUInt, AdditionCarryChain) {
  const auto a = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a + BigUInt{1}).to_hex(), "100000000000000000000000000000000");
}

TEST(BigUInt, MultiplicationMatchesU64) {
  sim::SplitMix64 rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next() >> 33;
    const std::uint64_t b = rng.next() >> 33;
    EXPECT_EQ(BigUInt{a} * BigUInt{b}, BigUInt{a * b});
  }
}

TEST(BigUInt, MultiplicationKnownBigProduct) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
  const auto a = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(),
            "fffffffffffffffffffffffffffffffe"
            "00000000000000000000000000000001");
}

TEST(BigUInt, ShiftsMatchMultiplication) {
  const auto v = BigUInt::from_hex("123456789abcdef");
  EXPECT_EQ(v << 4, v * BigUInt{16});
  EXPECT_EQ((v << 100) >> 100, v);
  EXPECT_EQ(v >> 200, BigUInt{});
  EXPECT_EQ(v << 0, v);
}

TEST(BigUInt, DivModInvariantRandom) {
  sim::SplitMix64 rng(3);
  ChaCha20 crng = make_rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto a = BigUInt::random_bits(1 + rng.next_below(256), crng);
    const auto b = BigUInt::random_bits(1 + rng.next_below(256), crng);
    const auto [q, r] = BigUInt::divmod(a, b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigUInt, DivModMatchesU64) {
  sim::SplitMix64 rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = 1 + rng.next_below(~0ull - 1);
    const auto [q, r] = BigUInt::divmod(BigUInt{a}, BigUInt{b});
    EXPECT_EQ(q, BigUInt{a / b});
    EXPECT_EQ(r, BigUInt{a % b});
  }
}

TEST(BigUInt, DivModAlgorithmDAddBackCase) {
  // Dividend/divisor pattern that exercises the rare "add back" branch of
  // Knuth's Algorithm D (top limbs equal).
  const auto a = BigUInt::from_hex("80000000000000000000000000000000");
  const auto b = BigUInt::from_hex("800000000000000000000001");
  const auto [q, r] = BigUInt::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigUInt, DividingSmallerYieldsZero) {
  const auto [q, r] = BigUInt::divmod(BigUInt{5}, BigUInt{7});
  EXPECT_EQ(q, BigUInt{});
  EXPECT_EQ(r, BigUInt{5});
}

TEST(BigUInt, ModExpSmallCases) {
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{2}, BigUInt{10}, BigUInt{1000}),
            BigUInt{24});
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{3}, BigUInt{0}, BigUInt{7}), BigUInt{1});
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{0}, BigUInt{5}, BigUInt{7}), BigUInt{});
  // Modulus 1 -> everything is 0.
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{9}, BigUInt{9}, BigUInt{1}), BigUInt{});
}

TEST(BigUInt, FermatLittleTheorem) {
  // 2^(p-1) mod p == 1 for prime p = 2^61 - 1.
  const BigUInt p{(1ull << 61) - 1};
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{2}, p - BigUInt{1}, p), BigUInt{1});
}

TEST(BigUInt, GcdBasics) {
  EXPECT_EQ(BigUInt::gcd(BigUInt{12}, BigUInt{18}), BigUInt{6});
  EXPECT_EQ(BigUInt::gcd(BigUInt{17}, BigUInt{13}), BigUInt{1});
  EXPECT_EQ(BigUInt::gcd(BigUInt{0}, BigUInt{5}), BigUInt{5});
  EXPECT_EQ(BigUInt::gcd(BigUInt{5}, BigUInt{0}), BigUInt{5});
}

TEST(BigUInt, ModInverseRoundTrip) {
  sim::SplitMix64 rng(5);
  ChaCha20 crng = make_rng(5);
  const auto m = BigUInt::from_hex("fffffffffffffffffffffffffffffff1");
  for (int i = 0; i < 50; ++i) {
    const auto a = BigUInt::random_below(m, crng);
    if (a.is_zero()) continue;
    const auto inv = BigUInt::mod_inverse(a, m);
    if (!inv) continue;  // not coprime
    EXPECT_EQ((a * *inv) % m, BigUInt{1});
  }
}

TEST(BigUInt, ModInverseOfNonCoprimeFails) {
  EXPECT_FALSE(BigUInt::mod_inverse(BigUInt{6}, BigUInt{9}).has_value());
  EXPECT_FALSE(BigUInt::mod_inverse(BigUInt{0}, BigUInt{7}).has_value());
}

TEST(BigUInt, ModInverseKnownValue) {
  // 3 * 4 = 12 == 1 (mod 11).
  const auto inv = BigUInt::mod_inverse(BigUInt{3}, BigUInt{11});
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, BigUInt{4});
}

TEST(BigUInt, RandomBitsHasExactBitLength) {
  ChaCha20 crng = make_rng(6);
  for (std::size_t bits : {1u, 2u, 31u, 32u, 33u, 64u, 100u, 256u}) {
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(BigUInt::random_bits(bits, crng).bit_length(), bits);
  }
}

TEST(BigUInt, RandomBelowStaysBelow) {
  ChaCha20 crng = make_rng(7);
  const auto bound = BigUInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i)
    EXPECT_LT(BigUInt::random_below(bound, crng), bound);
}

TEST(Primality, KnownPrimes) {
  ChaCha20 crng = make_rng(8);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 65537ull,
                          2147483647ull /* 2^31-1 */,
                          (1ull << 61) - 1 /* Mersenne */}) {
    EXPECT_TRUE(is_probable_prime(BigUInt{p}, crng)) << p;
  }
}

TEST(Primality, KnownComposites) {
  ChaCha20 crng = make_rng(9);
  for (std::uint64_t c : {1ull, 4ull, 6ull, 9ull, 561ull /* Carmichael */,
                          1729ull /* Carmichael */, 25326001ull,
                          (1ull << 32) + 1 /* F5 = 641 * 6700417 */}) {
    EXPECT_FALSE(is_probable_prime(BigUInt{c}, crng)) << c;
  }
}

TEST(Primality, LargeKnownPrime) {
  // 2^127 - 1 is a Mersenne prime.
  ChaCha20 crng = make_rng(10);
  const auto p = BigUInt::from_hex("7fffffffffffffffffffffffffffffff");
  EXPECT_TRUE(is_probable_prime(p, crng));
}

TEST(Primality, GeneratePrimeHasRequestedSize) {
  ChaCha20 crng = make_rng(11);
  const auto p = generate_prime(96, crng);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(is_probable_prime(p, crng));
}

TEST(BigUInt, MultiplicationAlgebraicIdentities) {
  ChaCha20 crng = make_rng(22);
  const BigUInt a = BigUInt::random_bits(3000, crng);
  const BigUInt b = BigUInt::random_bits(2900, crng);
  // (a + b)^2 == a^2 + 2ab + b^2.
  const BigUInt lhs = (a + b) * (a + b);
  const BigUInt rhs = a * a + (a * b) * BigUInt{2} + b * b;
  EXPECT_EQ(lhs, rhs);
  // Distributivity at large sizes.
  const BigUInt c = BigUInt::random_bits(1500, crng);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST(BigUInt, LargeModExpStillCorrect) {
  // Fermat on a big prime: p = 2^521 - 1 (Mersenne) has 17 32-bit limbs,
  // so Montgomery runs with the top 64-bit limb half empty.
  BigUInt p{1};
  p = (p << 521) - BigUInt{1};
  EXPECT_EQ(BigUInt::mod_exp(BigUInt{3}, p - BigUInt{1}, p), BigUInt{1});
}

// Right-to-left square-and-multiply from operator* and %: the reference
// every mod_exp path must reproduce.
BigUInt reference_mod_exp(const BigUInt& base, const BigUInt& exp,
                          const BigUInt& modulus) {
  BigUInt result = BigUInt{1} % modulus;
  BigUInt b = base % modulus;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b) % modulus;
    b = (b * b) % modulus;
  }
  return result;
}

BigUInt random_odd(std::size_t bits, ChaCha20& crng) {
  BigUInt m = BigUInt::random_bits(bits, crng);
  return m.is_odd() ? m : m + BigUInt{1};  // stays `bits` wide
}

TEST(BigUInt, ModExpMatchesSquareAndMultiply) {
  // 96 and 544 bits have an odd count of 32-bit limbs, which leaves the
  // top 64-bit Montgomery limb half empty.  m + 1 is even, so it takes
  // the square-and-multiply path instead.
  ChaCha20 crng = make_rng(30);
  for (std::size_t bits : {33u, 64u, 96u, 512u, 544u, 1024u, 2048u}) {
    const int trials = bits > 1024 ? 2 : 8;
    for (int trial = 0; trial < trials; ++trial) {
      const BigUInt m = random_odd(bits, crng);
      const BigUInt base = BigUInt::random_below(m, crng);
      const BigUInt exp =
          BigUInt::random_bits(std::min<std::size_t>(bits, 512), crng);
      for (const BigUInt& modulus : {m, m + BigUInt{1}}) {
        EXPECT_EQ(BigUInt::mod_exp(base, exp, modulus),
                  reference_mod_exp(base, exp, modulus))
            << "bits=" << bits << " trial=" << trial
            << " modulus=" << modulus.to_hex();
      }
    }
  }
}

TEST(BigUInt, ModExpHostileOperands) {
  ChaCha20 crng = make_rng(31);
  const BigUInt all_ones = (BigUInt{1} << 512) - BigUInt{1};  // saturated
  for (const BigUInt& m : {BigUInt{3}, random_odd(64, crng),
                           random_odd(544, crng), all_ones}) {
    const BigUInt exp = BigUInt::random_bits(200, crng);
    const BigUInt n_minus_1 = m - BigUInt{1};
    for (const BigUInt& base :
         {BigUInt{}, BigUInt{1}, n_minus_1, m, m + BigUInt{1},
          (m << 700) + BigUInt::random_below(m, crng)}) {
      SCOPED_TRACE("m=" + m.to_hex() + " base=" + base.to_hex());
      EXPECT_EQ(BigUInt::mod_exp(base, BigUInt{}, m), BigUInt{1});
      EXPECT_EQ(BigUInt::mod_exp(base, BigUInt{1}, m), base % m);
      EXPECT_EQ(BigUInt::mod_exp(base, exp, m),
                reference_mod_exp(base, exp, m));
    }
    // (n - 1)^e is n - 1 for odd e and 1 for even e.
    EXPECT_EQ(BigUInt::mod_exp(n_minus_1, BigUInt{65537}, m), n_minus_1);
    EXPECT_EQ(BigUInt::mod_exp(n_minus_1, BigUInt{65536}, m), BigUInt{1});
  }
}

}  // namespace
}  // namespace fairshare::crypto
