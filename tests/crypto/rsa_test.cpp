// RSA keypair generation, signatures, short-message encryption, and golden
// bytes pinned across changes to the arithmetic underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/auth.hpp"
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

TEST_F(RsaTest, VerifyAndDecryptRejectHostileValues) {
  const BigUInt& n = key().pub.n;
  const std::size_t len = key().pub.modulus_bytes();
  const auto msg = bytes("authenticate me");
  auto short_signature = rsa_sign(key(), msg);
  short_signature.erase(short_signature.begin());
  auto short_cipher = rsa_encrypt(key().pub, bytes("session")).value();
  short_cipher.erase(short_cipher.begin());
  const std::vector<std::vector<std::uint8_t>> hostile = {
      std::vector<std::uint8_t>(len, 0x00),
      (n - BigUInt{1}).to_bytes_be(len),
      n.to_bytes_be(len),
      std::vector<std::uint8_t>(len, 0xFF),
      short_signature,
      short_cipher,
  };
  for (const auto& value : hostile) {
    SCOPED_TRACE(BigUInt::from_bytes_be(value).to_hex());
    EXPECT_FALSE(rsa_verify(key().pub, msg, value));
    EXPECT_FALSE(rsa_decrypt(key(), value).has_value());
  }
}

TEST_F(RsaTest, FaultCheckWithholdsFaultyCrtResults) {
  const auto msg = bytes("authenticate me");
  const auto cipher = rsa_encrypt(key().pub, bytes("session"));
  ASSERT_TRUE(cipher.has_value());
  RsaKeyPair faulty_p = key();
  faulty_p.dp = faulty_p.dp + BigUInt{1};
  RsaKeyPair faulty_q = key();
  faulty_q.dq = faulty_q.dq + BigUInt{1};
  for (const RsaKeyPair* faulty : {&faulty_p, &faulty_q}) {
    EXPECT_TRUE(rsa_sign(*faulty, msg).empty());
    EXPECT_FALSE(rsa_decrypt(*faulty, *cipher).has_value());
  }
  EXPECT_TRUE(rsa_verify(key().pub, msg, rsa_sign(key(), msg)));
  EXPECT_EQ(rsa_decrypt(key(), *cipher), bytes("session"));
}

// The padding rsa_sign applies: 0x01 || 0xFF.. || 0x00 || SHA-256(message).
BigUInt padded_digest(std::span<const std::uint8_t> message,
                      std::size_t modulus_bytes) {
  const Sha256Digest digest = Sha256::hash(message);
  std::vector<std::uint8_t> padded(modulus_bytes, 0xFF);
  padded[0] = 0x01;
  padded[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(),
            padded.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return BigUInt::from_bytes_be(padded);
}

// The same key with its factors exchanged, so both orders of p and q are
// tested: when q > p, the half reduced mod q can exceed p + (the half
// reduced mod p), which Garner's formula must reduce before subtracting.
RsaKeyPair with_factors_swapped(const RsaKeyPair& key) {
  RsaKeyPair out = key;
  std::swap(out.p, out.q);
  std::swap(out.dp, out.dq);
  out.qinv = *BigUInt::mod_inverse(out.q, out.p);
  return out;
}

TEST(RsaCrt, PrivateOperationsMatchModExpByD) {
  for (std::size_t bits : {512u, 1024u, 2048u}) {
    SCOPED_TRACE(bits);
    ChaCha20 rng = make_rng(static_cast<std::uint8_t>(40 + bits / 512));
    const RsaKeyPair generated = RsaKeyPair::generate(bits, rng);
    ASSERT_EQ(generated.p * generated.q, generated.pub.n);
    const int trials = bits == 512 ? 48 : 3;
    for (const RsaKeyPair& key : {generated, with_factors_swapped(generated)}) {
      const BigUInt& n = key.pub.n;
      for (int trial = 0; trial < trials; ++trial) {
        // A random full-length plaintext makes c = m^e a random-looking
        // value below n; CRT must give back exactly c^d mod n.
        std::vector<std::uint8_t> plain(key.pub.modulus_bytes() - 2);
        rng.generate(plain);
        const auto cipher = rsa_encrypt(key.pub, plain);
        ASSERT_TRUE(cipher.has_value());
        const BigUInt framed = (BigUInt{1} << (8 * plain.size())) +
                               BigUInt::from_bytes_be(plain);  // 0x01 || plain
        EXPECT_EQ(BigUInt::mod_exp(BigUInt::from_bytes_be(*cipher), key.d, n),
                  framed);
        EXPECT_EQ(rsa_decrypt(key, *cipher), plain);

        const BigUInt padded = padded_digest(plain, key.pub.modulus_bytes());
        EXPECT_EQ(BigUInt::from_bytes_be(rsa_sign(key, plain)),
                  BigUInt::mod_exp(padded, key.d, n));
      }
    }
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

// Bytes recorded on the square-and-multiply implementation that preceded
// Montgomery exponentiation and CRT private-key operations.  Keygen draws
// the same randomness and CRT yields the same integers, so none may move.
struct GoldenKey {
  std::size_t bits;
  std::uint8_t seed;
  const char* n;
  const char* d;
  const char* signature;   // rsa_sign(key, "authenticate me")
  const char* ciphertext;  // rsa_encrypt(key.pub, kGoldenPlaintext)
};

constexpr std::string_view kGoldenPlaintext = "golden session key 0123456789abc";

constexpr GoldenKey kGoldenKeys[] = {
    {512, 1,
     "9eebd3e302daaa7bb6658490b334fc1cc44f9094c02d996f390f9b74e52f4d79"
     "6f738f457d7af5bbc300599280945c2a44291da2bdee50a8df41cebadb03491f",
     "4d53f0e108158058fc127fa3ad1f7e013d607db8739e7c874b1b96081630a320"
     "47daef3897221703204d0b6afa724990a0691c4cf9daf8fab79c78338cd78421",
     "815099ca83da985f293c56a7105070c37773f981b24708f82eb99f4e15af2069"
     "5e2b8933e12776b35190db2d8d883967ebec06cd7cb59ef4a3fcca481b973bfc",
     "38c63c1744844ec9d0a9e438665522e8f4d2dff6ec48233ead1896124f034887"
     "d2e17fe6a2d29e6dac072b76b47334e9ac0f3642f384cc971ca9aa2d1034723d"},
    {1024, 5,
     "e1259289002c42c6ad3740f3b52f86b7298f931df93e1c9df524c38465089362"
     "536950081281d5289e38d2db4c60fc849cb42bb13e47193f150e5bea9dac3d3d"
     "e9972ec17a6251137659e43f44f14dab0e322ae2414882a3fbb4df1b5fe84586"
     "354c217300b354719e8e5b77906c3dc0b768c0c9440509299962e56becdedb51",
     "7153d43a9997add50b8370723b953c9e1d916360070138ae59a2b3b78493987c"
     "39b81cccb3641ec35f410301d7a449f70659ba547120a0989c24aa27a24dfc54"
     "a7cd43c51370794223adefbd5eafe73336ba55e35b890dcffc222640e53edec5"
     "e629661a5bc387c5ef9314462b8c05f94d41db45ee01810a36b7f70cdf0119f1",
     "b2b8d7bb11146e431e9cf90e6e91ebe3f548b5bb31c2171b4acf8cc506ffb529"
     "5fa6de3a0b4dfcf6271c8d762b20f9458f8ac9a7331e625746eb47bfe626e31e"
     "c3adea51215843cc8c9ddcb378715adea128c44aafff0953d61e89d4b1d4cc26"
     "c77a4b874c64c544c5b947c0a9d1624adccc0859d806727d413ca016ad7238ad",
     "478f4885acf04cffe42fb6a2153a3bf006e67a601b39b5809800ca036d63ebd3"
     "aed4cd5a48b839f47437abcf30d87d76523cfa8dbb626956f05bf8475eb994e1"
     "4ab64552c0ab9d6432816e885bb891919b52858a61cb4d06ab702272f58c8161"
     "347178cb61947f8061b40ef5dc29c651fdff3618c6867ff803af0917e2bb07f1"},
};

std::string hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(Rsa, GoldenKeysAndSignatures) {
  // The 512-bit entry is RsaTest::key().
  for (const GoldenKey& g : kGoldenKeys) {
    SCOPED_TRACE(g.bits);
    ChaCha20 rng = make_rng(g.seed);
    const RsaKeyPair key = RsaKeyPair::generate(g.bits, rng);
    EXPECT_EQ(key.pub.n.to_hex(), g.n);
    EXPECT_EQ(key.d.to_hex(), g.d);
    EXPECT_EQ(hex(rsa_sign(key, bytes("authenticate me"))), g.signature);
    const auto cipher = BigUInt::from_hex(g.ciphertext)
                            .to_bytes_be(key.pub.modulus_bytes());
    const auto plain = rsa_decrypt(key, cipher);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(*plain, bytes(kGoldenPlaintext));
    const auto encrypted = rsa_encrypt(key.pub, bytes(kGoldenPlaintext));
    ASSERT_TRUE(encrypted.has_value());
    EXPECT_EQ(*encrypted, cipher);
  }

  // One complete handshake: user key seed 1, peer key seed 2, handshake
  // randomness seed 10.
  ChaCha20 user_rng = make_rng(1);
  ChaCha20 peer_rng = make_rng(2);
  const RsaKeyPair user_key = RsaKeyPair::generate(512, user_rng);
  const RsaKeyPair peer_key = RsaKeyPair::generate(512, peer_rng);
  ChaCha20 rng = make_rng(10);
  AuthInitiator user(7, user_key, peer_key.pub, rng);
  AuthResponder peer(3, peer_key, user_key.pub, rng);
  const AuthChallenge challenge = peer.on_hello(user.hello());
  EXPECT_EQ(hex(challenge.signature),
            "4504a8773cb3eb84ce038f5a404a561915348cddaa868d43d4839d94ca14a8ac"
            "fece33e84a56a21f83023a125792de3c661d7aa407128e439a706c547c33840f");
  const auto response = user.on_challenge(challenge);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(hex(response->signature),
            "73877642c1264f5afec5eb9aee34d83d18e0c832673b490a211cc278d7381255"
            "f833d5359651101f66d4790f268419e09e6d27ef525da166751bcdae79382848");
  EXPECT_EQ(hex(response->encrypted_session_key),
            "5534ad3b0ab65f5c2a7615d94a100ba76a4f1702551c74d993a56d78efbf20fc"
            "3864f7e21cfabe27286ecabb1adcd94dde1d347899b6ea5a72d32f68bbf5fdf7");
  ASSERT_TRUE(peer.on_response(*response));
  EXPECT_EQ(hex(peer.session_key()),
            "7c569242fafa725787786c48dc4e6f27fd4c252d5ba171fd02b81037ed8e53ed");
}

}  // namespace
}  // namespace fairshare::crypto
