// Internal: per-scalar product tables for the wide fields GF(2^16)/GF(2^32).
//
// All three table shapes here are views of the same object — the GF(2)-
// linear map x -> c*x, sliced at different granularities and built from the
// shared cx_powers() basis (cx[j] = c * x^j):
//   * WindowTables: W[b][v] = c * (v << 8b).  A symbol product is kBytes
//     lookups plus kBytes-1 xors; built in O(256 * kBytes) xors per scalar
//     via the gray-code recurrence W[v] = W[v & (v-1)] ^ cx[...], then
//     amortized over the m >= 8192 symbols of a message row.  Consumed by
//     the portable per-symbol kernels (row_ops.cpp) and the widened 64-bit
//     kernels (row_ops_simd.cpp).
//   * NibbleTables: nt[j][o][v] = byte o of c * (v << 4j).  The 4-bit-index
//     split of the same map, shaped for pshufb: each [j][o] sub-table is 16
//     bytes, so the AVX2 split-table kernels look products up a nibble at a
//     time on byte planes.  Built in O(16 * kNibbles) xors per scalar.
//   * GfniMatrices: m[o][k] is the 8x8 GF(2) bit-matrix mapping input byte
//     k of a symbol to output byte o, in gf2p8affineqb operand layout (row
//     i of the matrix lives at qword byte 7-i; row bit j corresponds to
//     input bit j).  The GFNI kernels apply these per byte plane with zero
//     table memory.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "gf/field.hpp"

namespace fairshare::gf::detail {

/// cx[j] = c * x^j for j in [0, Bits): the bit basis of multiplication by c.
template <unsigned Bits>
constexpr std::array<std::uint64_t, Bits> cx_powers(std::uint64_t c) {
  std::array<std::uint64_t, Bits> cx{};
  std::uint64_t v = c;
  for (unsigned j = 0; j < Bits; ++j) {
    cx[j] = v;
    v <<= 1;
    if ((v >> Bits) & 1) v ^= GF<Bits>::modulus;
  }
  return cx;
}

template <unsigned Bits>
struct WindowTables {
  using F = GF<Bits>;
  using Elem = typename F::Elem;
  static constexpr unsigned kBytes = Bits / 8;
  std::array<std::array<Elem, 256>, kBytes> w;

  explicit WindowTables(Elem c) {
    const auto cx = cx_powers<Bits>(c);
    for (unsigned b = 0; b < kBytes; ++b) {
      w[b][0] = 0;
      for (unsigned t = 1; t < 256; ++t) {
        const unsigned low = t & (t - 1);
        const unsigned j = static_cast<unsigned>(std::countr_zero(t));
        w[b][t] = static_cast<Elem>(w[b][low] ^ cx[8 * b + j]);
      }
    }
  }

  Elem mul(Elem x) const {
    Elem r = w[0][x & 0xFF];
    for (unsigned b = 1; b < kBytes; ++b)
      r = static_cast<Elem>(r ^ w[b][(x >> (8 * b)) & 0xFF]);
    return r;
  }
};

template <unsigned Bits>
struct NibbleTables {
  using Elem = typename GF<Bits>::Elem;
  static constexpr unsigned kNibbles = Bits / 4;
  static constexpr unsigned kBytes = Bits / 8;
  // t[j][o] is one 16-byte pshufb operand: byte o of c * (v << 4j).
  alignas(16) std::uint8_t t[kNibbles][kBytes][16];

  explicit NibbleTables(Elem c) {
    const auto cx = cx_powers<Bits>(c);
    for (unsigned j = 0; j < kNibbles; ++j) {
      std::uint64_t p[16];
      p[0] = 0;
      for (unsigned v = 1; v < 16; ++v) {
        const unsigned low = v & (v - 1);
        const unsigned bit = static_cast<unsigned>(std::countr_zero(v));
        p[v] = p[low] ^ cx[4 * j + bit];
      }
      for (unsigned o = 0; o < kBytes; ++o)
        for (unsigned v = 0; v < 16; ++v)
          t[j][o][v] = static_cast<std::uint8_t>(p[v] >> (8 * o));
    }
  }

  Elem mul(Elem x) const {
    std::uint64_t r = 0;
    for (unsigned j = 0; j < kNibbles; ++j) {
      const unsigned nib = (x >> (4 * j)) & 0xF;
      for (unsigned o = 0; o < kBytes; ++o)
        r ^= static_cast<std::uint64_t>(t[j][o][nib]) << (8 * o);
    }
    return static_cast<Elem>(r);
  }
};

/// Transpose of an 8x8 bit matrix held one row per byte (bit c of byte r
/// is element (r, c)): three rounds of delta swaps (Hacker's Delight 7-3).
constexpr std::uint64_t transpose8x8(std::uint64_t x) {
  x = (x & 0xAA55AA55AA55AA55ull) | ((x & 0x00AA00AA00AA00AAull) << 7) |
      ((x >> 7) & 0x00AA00AA00AA00AAull);
  x = (x & 0xCCCC3333CCCC3333ull) | ((x & 0x0000CCCC0000CCCCull) << 14) |
      ((x >> 14) & 0x0000CCCC0000CCCCull);
  x = (x & 0xF0F0F0F00F0F0F0Full) | ((x & 0x00000000F0F0F0F0ull) << 28) |
      ((x >> 28) & 0x00000000F0F0F0F0ull);
  return x;
}

/// Byte reverse of a qword (compilers lower it to bswap).
constexpr std::uint64_t reverse_bytes(std::uint64_t x) {
  x = ((x & 0x00FF00FF00FF00FFull) << 8) | ((x >> 8) & 0x00FF00FF00FF00FFull);
  x = ((x & 0x0000FFFF0000FFFFull) << 16) |
      ((x >> 16) & 0x0000FFFF0000FFFFull);
  return (x << 32) | (x >> 32);
}

template <unsigned Bits>
struct GfniMatrices {
  using Elem = typename GF<Bits>::Elem;
  static constexpr unsigned kBytes = Bits / 8;
  std::uint64_t m[kBytes][kBytes];

  // Gathering byte o of cx[8k + j] into byte j gives block (o, k) with one
  // input bit per row; its transpose has one output bit per row, and the
  // byte reverse puts output bit i at qword byte 7 - i.
  explicit GfniMatrices(Elem c) {
    const auto cx = cx_powers<Bits>(c);
    for (unsigned o = 0; o < kBytes; ++o)
      for (unsigned k = 0; k < kBytes; ++k) {
        std::uint64_t q = 0;
        for (unsigned j = 0; j < 8; ++j)
          q |= ((cx[8 * k + j] >> (8 * o)) & 0xFF) << (8 * j);
        m[o][k] = reverse_bytes(transpose8x8(q));
      }
  }
};

}  // namespace fairshare::gf::detail
