// Textbook RSA keypairs, signatures, and encryption over bigint.hpp.
//
// Backs the "classic public-key challenge response system" of Section
// III-B: a peer proves its identity by signing the verifier's nonce.  The
// paper does not fix a primitive, so we use RSA with SHA-256 digests and
// simple deterministic padding.  Key sizes in tests/examples are small
// (512-1024 bits) to keep key generation fast; this is a protocol
// demonstration, not hardened cryptography (no OAEP/PSS, no blinding).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/sha256.hpp"

namespace fairshare::crypto {

class ChaCha20;

/// RSA public half (n, e).
struct RsaPublicKey {
  BigUInt n;
  BigUInt e;
  /// Modulus size in bytes; signatures and ciphertexts have this length.
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

/// Full RSA keypair.  Private-key operations run on the CRT form of d.
struct RsaKeyPair {
  RsaPublicKey pub;
  BigUInt d;     ///< private exponent
  BigUInt p;     ///< prime factors, n = p q
  BigUInt q;
  BigUInt dp;    ///< d mod (p - 1)
  BigUInt dq;    ///< d mod (q - 1)
  BigUInt qinv;  ///< q^-1 mod p

  /// Generate a keypair with an exactly `bits`-bit modulus, e = 65537.
  /// Randomness comes from `rng` (deterministic for a fixed seed, which
  /// tests exploit).
  static RsaKeyPair generate(std::size_t bits, ChaCha20& rng);
};

/// Sign SHA-256(message) with the private key.  The digest is left-padded
/// deterministically to the modulus size (a simplified EMSA-style pad).
/// Returns an empty signature, which every verifier rejects, when the
/// result fails the fault check.
std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key,
                                   std::span<const std::uint8_t> message);

/// Verify a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature);

/// Raw RSA encryption of a short message (must be < modulus_bytes - 1).
/// Used for the session-key transport in the handshake.
std::optional<std::vector<std::uint8_t>> rsa_encrypt(
    const RsaPublicKey& key, std::span<const std::uint8_t> plaintext);

/// Inverse of rsa_encrypt.  nullopt on a malformed ciphertext or a result
/// that fails the fault check.
std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaKeyPair& key, std::span<const std::uint8_t> ciphertext);

}  // namespace fairshare::crypto
