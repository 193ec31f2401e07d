// RSA keypair generation, signatures, and short-message encryption.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/rsa.hpp"

namespace fairshare::crypto {
namespace {

ChaCha20 make_rng(std::uint8_t tag) {
  std::array<std::uint8_t, 32> key{};
  key[0] = tag;
  std::array<std::uint8_t, 12> nonce{};
  return ChaCha20(key, nonce, 0);
}

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

class RsaTest : public ::testing::Test {
 protected:
  static const RsaKeyPair& key() {
    static ChaCha20 rng = make_rng(1);
    static const RsaKeyPair k = RsaKeyPair::generate(512, rng);
    return k;
  }
};

TEST_F(RsaTest, ModulusHasRequestedSize) {
  EXPECT_EQ(key().pub.n.bit_length(), 512u);
  EXPECT_EQ(key().pub.e, BigUInt{65537});
  EXPECT_EQ(key().pub.modulus_bytes(), 64u);
}

TEST_F(RsaTest, PrivateExponentInvertsPublic) {
  // m^(e*d) == m (mod n) for random small m.
  for (std::uint64_t m : {2ull, 3ull, 0xdeadbeefull}) {
    const BigUInt msg{m};
    const BigUInt c = BigUInt::mod_exp(msg, key().pub.e, key().pub.n);
    EXPECT_EQ(BigUInt::mod_exp(c, key().d, key().pub.n), msg);
  }
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const auto msg = bytes("authenticate me");
  const auto sig = rsa_sign(key(), msg);
  EXPECT_EQ(sig.size(), key().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const auto msg = bytes("authenticate me");
  const auto sig = rsa_sign(key(), msg);
  EXPECT_FALSE(rsa_verify(key().pub, bytes("authenticate mE"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const auto msg = bytes("authenticate me");
  auto sig = rsa_sign(key(), msg);
  sig[10] ^= 0x40;
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const auto msg = bytes("m");
  auto sig = rsa_sign(key(), msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsSignatureFromAnotherKey) {
  ChaCha20 rng = make_rng(2);
  const RsaKeyPair other = RsaKeyPair::generate(512, rng);
  const auto msg = bytes("cross-key");
  const auto sig = rsa_sign(other, msg);
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
  EXPECT_TRUE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  const auto plain = bytes("session-key-0123456789abcdef");
  const auto cipher = rsa_encrypt(key().pub, plain);
  ASSERT_TRUE(cipher.has_value());
  EXPECT_EQ(cipher->size(), key().pub.modulus_bytes());
  const auto decrypted = rsa_decrypt(key(), *cipher);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, plain);
}

TEST_F(RsaTest, EncryptPreservesLeadingZeroBytes) {
  std::vector<std::uint8_t> plain{0x00, 0x00, 0xab};
  const auto cipher = rsa_encrypt(key().pub, plain);
  ASSERT_TRUE(cipher.has_value());
  const auto decrypted = rsa_decrypt(key(), *cipher);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, plain);
}

TEST_F(RsaTest, EncryptRejectsOversizedPlaintext) {
  const std::vector<std::uint8_t> plain(key().pub.modulus_bytes(), 0x5a);
  EXPECT_FALSE(rsa_encrypt(key().pub, plain).has_value());
}

TEST_F(RsaTest, DecryptRejectsWrongLengthCiphertext) {
  const std::vector<std::uint8_t> junk(10, 1);
  EXPECT_FALSE(rsa_decrypt(key(), junk).has_value());
}

TEST_F(RsaTest, DecryptWithWrongKeyFailsFraming) {
  ChaCha20 rng = make_rng(3);
  const RsaKeyPair other = RsaKeyPair::generate(512, rng);
  const auto plain = bytes("secret");
  const auto cipher = rsa_encrypt(key().pub, plain);
  ASSERT_TRUE(cipher.has_value());
  const auto decrypted = rsa_decrypt(other, *cipher);
  // Either framing fails or the bytes are wrong; both are acceptable.
  if (decrypted) {
    EXPECT_NE(*decrypted, plain);
  }
}

TEST(RsaDeterminism, SameSeedSameKey) {
  ChaCha20 rng1 = make_rng(4);
  ChaCha20 rng2 = make_rng(4);
  const RsaKeyPair a = RsaKeyPair::generate(256, rng1);
  const RsaKeyPair b = RsaKeyPair::generate(256, rng2);
  EXPECT_EQ(a.pub.n, b.pub.n);
  EXPECT_EQ(a.d, b.d);
}

}  // namespace
}  // namespace fairshare::crypto
