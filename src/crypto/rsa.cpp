#include "crypto/rsa.hpp"

#include <cassert>

#include "crypto/chacha20.hpp"

namespace fairshare::crypto {

RsaKeyPair RsaKeyPair::generate(std::size_t bits, ChaCha20& rng) {
  assert(bits >= 128);
  const BigUInt e{65537};
  for (;;) {
    const BigUInt p = generate_prime(bits / 2, rng);
    const BigUInt q = generate_prime(bits - bits / 2, rng);
    if (p == q) continue;
    const BigUInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigUInt p1 = p - BigUInt{1};
    const BigUInt q1 = q - BigUInt{1};
    const auto d = BigUInt::mod_inverse(e, p1 * q1);
    if (!d) continue;  // e not coprime with phi; rare but possible
    // Distinct primes are coprime, so q has an inverse mod p.
    const BigUInt qinv = *BigUInt::mod_inverse(q, p);
    return RsaKeyPair{RsaPublicKey{n, e}, *d, p, q, *d % p1, *d % q1, qinv};
  }
}

namespace {

// Deterministic digest padding: 0x01 || 0xFF.. || 0x00 || digest, sized to
// the modulus (guarantees the padded value is < n and has full length).
BigUInt pad_digest(const Sha256Digest& digest, std::size_t modulus_bytes) {
  assert(modulus_bytes >= digest.size() + 3);
  std::vector<std::uint8_t> padded(modulus_bytes, 0xFF);
  padded[0] = 0x01;
  padded[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(),
            padded.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return BigUInt::from_bytes_be(padded);
}

// x^d mod n by CRT: x^dp mod p and x^dq mod q, recombined by Garner's
// formula m = m2 + q (qinv (m1 - m2) mod p).  A fault in either half
// would leak a factor of n through the result, so the result leaves only
// once raising it back to e gives x again.
std::optional<BigUInt> private_op(const RsaKeyPair& key, const BigUInt& x) {
  const BigUInt m1 = BigUInt::mod_exp(x, key.dp, key.p);
  const BigUInt m2 = BigUInt::mod_exp(x, key.dq, key.q);
  const BigUInt m2p = m2 % key.p;
  const BigUInt diff = m1 >= m2p ? m1 - m2p : m1 + key.p - m2p;
  const BigUInt m = m2 + (key.qinv * diff) % key.p * key.q;
  if (BigUInt::mod_exp(m, key.pub.e, key.pub.n) != x) return std::nullopt;
  return m;
}

}  // namespace

std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key,
                                   std::span<const std::uint8_t> message) {
  const Sha256Digest digest = Sha256::hash(message);
  const BigUInt m = pad_digest(digest, key.pub.modulus_bytes());
  const auto s = private_op(key, m);
  if (!s) return {};
  return s->to_bytes_be(key.pub.modulus_bytes());
}

bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature) {
  if (signature.size() != key.modulus_bytes()) return false;
  const BigUInt s = BigUInt::from_bytes_be(signature);
  if (s >= key.n) return false;
  const BigUInt recovered = BigUInt::mod_exp(s, key.e, key.n);
  const Sha256Digest digest = Sha256::hash(message);
  return recovered == pad_digest(digest, key.modulus_bytes());
}

std::optional<std::vector<std::uint8_t>> rsa_encrypt(
    const RsaPublicKey& key, std::span<const std::uint8_t> plaintext) {
  if (plaintext.size() + 2 > key.modulus_bytes()) return std::nullopt;
  std::vector<std::uint8_t> framed;
  framed.reserve(plaintext.size() + 1);
  framed.push_back(0x01);  // length-preserving frame marker
  framed.insert(framed.end(), plaintext.begin(), plaintext.end());
  const BigUInt m = BigUInt::from_bytes_be(framed);
  const BigUInt c = BigUInt::mod_exp(m, key.e, key.n);
  return c.to_bytes_be(key.modulus_bytes());
}

std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaKeyPair& key, std::span<const std::uint8_t> ciphertext) {
  if (ciphertext.size() != key.pub.modulus_bytes()) return std::nullopt;
  const BigUInt c = BigUInt::from_bytes_be(ciphertext);
  if (c >= key.pub.n) return std::nullopt;
  const auto m = private_op(key, c);
  if (!m) return std::nullopt;
  std::vector<std::uint8_t> framed = m->to_bytes_be();
  if (framed.empty() || framed[0] != 0x01) return std::nullopt;
  framed.erase(framed.begin());
  return framed;
}

}  // namespace fairshare::crypto
