// Arbitrary-precision unsigned integers, sized for the public-key
// challenge-response handshake of Section III-B.
//
// Little-endian 32-bit limbs, normalized (no high zero limbs; zero is the
// empty limb vector).  Products are schoolbook and division is Knuth's
// Algorithm D.  Modular exponentiation by an odd modulus (every RSA
// modulus and prime) runs in Montgomery form over 64-bit limbs with a
// 4-bit fixed window: no division and no allocation inside the loop.
// This is a protocol-fidelity substrate, not a hardened crypto library:
// operand-dependent timing is not hidden.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fairshare::crypto {

class ChaCha20;
struct DivMod;

class BigUInt {
 public:
  /// Zero.
  BigUInt() = default;
  explicit BigUInt(std::uint64_t v);

  /// Parse from hex (no 0x prefix, case-insensitive).  Empty string -> 0.
  static BigUInt from_hex(std::string_view hex);
  /// Big-endian byte import (leading zeros allowed).
  static BigUInt from_bytes_be(std::span<const std::uint8_t> bytes);
  /// Uniformly random value with exactly `bits` bits (top bit forced to 1).
  static BigUInt random_bits(std::size_t bits, ChaCha20& rng);
  /// Uniformly random value in [0, bound), bound > 0.
  static BigUInt random_below(const BigUInt& bound, ChaCha20& rng);

  std::string to_hex() const;  ///< lowercase, no leading zeros ("0" for zero)
  /// Big-endian bytes, minimal length (empty for zero) unless `min_len`
  /// asks for left zero-padding.
  std::vector<std::uint8_t> to_bytes_be(std::size_t min_len = 0) const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  /// Value of the low 64 bits.
  std::uint64_t low_u64() const;

  std::strong_ordering operator<=>(const BigUInt& other) const;
  bool operator==(const BigUInt& other) const = default;

  BigUInt operator+(const BigUInt& other) const;
  /// Precondition: *this >= other.
  BigUInt operator-(const BigUInt& other) const;
  BigUInt operator*(const BigUInt& other) const;
  BigUInt operator<<(std::size_t bits) const;
  BigUInt operator>>(std::size_t bits) const;
  BigUInt operator/(const BigUInt& other) const;
  BigUInt operator%(const BigUInt& other) const;

  /// Quotient and remainder in one pass.  Precondition: divisor != 0.
  static DivMod divmod(const BigUInt& dividend, const BigUInt& divisor);

  /// (base^exp) mod modulus.  Precondition: modulus != 0.  An even
  /// modulus takes plain square-and-multiply.
  static BigUInt mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& modulus);
  static BigUInt gcd(BigUInt a, BigUInt b);
  /// a^-1 mod m, or nullopt when gcd(a, m) != 1.
  static std::optional<BigUInt> mod_inverse(const BigUInt& a,
                                            const BigUInt& m);

 private:
  void trim();
  std::vector<std::uint32_t> limbs_;  // little endian, normalized
};

/// Result of BigUInt::divmod.
struct DivMod {
  BigUInt quotient;
  BigUInt remainder;
};

/// Miller-Rabin with `rounds` random bases drawn from `rng` (plus base 2).
/// Error probability <= 4^-rounds for odd composites.
bool is_probable_prime(const BigUInt& n, ChaCha20& rng, int rounds = 24);

/// Random prime with exactly `bits` bits (top and low bit set), found by
/// trial division over small primes followed by Miller-Rabin.
BigUInt generate_prime(std::size_t bits, ChaCha20& rng);

}  // namespace fairshare::crypto
