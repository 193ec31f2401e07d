// Accelerated row kernels behind runtime CPU dispatch (see row_ops.hpp for
// the dispatch contract and DESIGN.md "Row-kernel dispatch" for the
// technique).
//
//   * GF(2^4)/GF(2^8): the GF-Complete split-nibble shuffle.  A product
//     c*b over GF(2^8) splits as c*(b & 0xF) ^ c*(b >> 4 << 4); both halves
//     range over 16 values, so two 16-entry tables per scalar turn pshufb
//     into 16 (SSSE3) or 32 (AVX2) byte-products per instruction pair.
//     GF(2^4) packs two symbols per byte and needs only one 16-entry table,
//     applied to each nibble lane.
//   * GF(2^16)/GF(2^32): three tiers.
//       - "gfni512": multiplication by a constant is GF(2)-linear, so each
//         (input byte k -> output byte o) block of the map is an 8x8 bit
//         matrix applied with gf2p8affineqb.  Symbols are shuffled into
//         byte planes per 128-bit lane (pshufb + unpacks), each plane gets
//         kBytes affine transforms, and the inverse unpacks restore symbol
//         order.  Needs GFNI+AVX512F+AVX512BW; near-zero per-call setup.
//       - "avx2": the GF-Complete split-table scheme widened to 16/32-bit
//         symbols: the same byte-plane transpose, then 4-bit-indexed
//         pshufb sub-tables (NibbleTables) per (nibble j, output byte o)
//         pair — 8 resp. 32 pshufbs per 32 symbols.
//       - "window64": the same per-scalar window tables as the scalar
//         path, but consumed through unrolled 64-bit loads (4 resp. 2
//         symbols per load) instead of one memcpy per symbol.  Little-
//         endian only; the lane order of a u64 must match symbol order for
//         the byte-extraction shifts to index the right window.
//     The byte-plane transpose permutes symbols within a block, which is
//     harmless: products are per-symbol independent and the reinterleave
//     applies the exact inverse permutation.  The avx2 tier's tails fall
//     back to exact per-symbol products — any correct GF(2^w) multiply is
//     bit-identical, so vector body and tail may use different table
//     shapes; gfni512 runs its last partial block masked instead.
//
// Every kernel here is bit-identical to its scalar counterpart, including
// the multiplied padding nibble of an odd-length GF(2^4) row — the
// differential suite (tests/gf/simd_dispatch_test.cpp) diffs whole buffers.
#include "gf/row_ops_simd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "gf/field.hpp"
#include "gf/window_tables.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FAIRSHARE_HAVE_X86_KERNELS 1
#include <immintrin.h>
#else
#define FAIRSHARE_HAVE_X86_KERNELS 0
#endif

namespace fairshare::gf::detail {

namespace {

// ------------------------------------------------- per-scalar nibble tables

// GF(2^4): N[c][v] = c*v, value in the low nibble.  One 16-entry shuffle
// table covers both nibble lanes of a packed byte.
struct Gf4NibbleTable {
  alignas(16) std::uint8_t t[16][16];
  Gf4NibbleTable() {
    for (unsigned c = 0; c < 16; ++c)
      for (unsigned v = 0; v < 16; ++v)
        t[c][v] = GF<4>::mul(static_cast<std::uint8_t>(c),
                             static_cast<std::uint8_t>(v));
  }
};

const Gf4NibbleTable& gf4_nibble_table() {
  static const Gf4NibbleTable tab;
  return tab;
}

// GF(2^8): lo[c][v] = c*v, hi[c][v] = c*(v << 4); c*b = lo[b&0xF] ^ hi[b>>4].
struct Gf8NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
  Gf8NibbleTables() {
    for (unsigned c = 0; c < 256; ++c)
      for (unsigned v = 0; v < 16; ++v) {
        lo[c][v] = GF<8>::mul(static_cast<std::uint8_t>(c),
                              static_cast<std::uint8_t>(v));
        hi[c][v] = GF<8>::mul(static_cast<std::uint8_t>(c),
                              static_cast<std::uint8_t>(v << 4));
      }
  }
};

const Gf8NibbleTables& gf8_nibble_tables() {
  static const Gf8NibbleTables tab;
  return tab;
}

// Scalar tails of the vector loops, built on the same tables so results
// stay bit-identical whichever loop handled a byte.
inline std::uint8_t gf4_byte_product(const std::uint8_t* nib, std::uint8_t b) {
  return static_cast<std::uint8_t>(nib[b & 0xF] | (nib[b >> 4] << 4));
}

inline std::uint8_t gf8_byte_product(const std::uint8_t* lo,
                                     const std::uint8_t* hi, std::uint8_t b) {
  return static_cast<std::uint8_t>(lo[b & 0xF] ^ hi[b >> 4]);
}

#if FAIRSHARE_HAVE_X86_KERNELS

#define FAIRSHARE_TARGET(isa) __attribute__((target(isa)))

// ----------------------------------------------------------- SSSE3 kernels

FAIRSHARE_TARGET("ssse3")
void gf4_axpy_ssse3(std::byte* dst, const std::byte* src, std::uint64_t c,
                    std::size_t n) {
  if (c == 0) return;
  const std::size_t nb = (n + 1) / 2;
  std::size_t i = 0;
  if (c == 1) {
    const __m128i* s128 = reinterpret_cast<const __m128i*>(src);
    __m128i* d128 = reinterpret_cast<__m128i*>(dst);
    for (; i + 16 <= nb; i += 16, ++s128, ++d128)
      _mm_storeu_si128(d128, _mm_xor_si128(_mm_loadu_si128(d128),
                                           _mm_loadu_si128(s128)));
    for (; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* nib = gf4_nibble_table().t[c & 0xF];
  const __m128i tab = _mm_load_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i mask = _mm_set1_epi8(0x0F);
  for (; i + 16 <= nb; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(s, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
    // Products are 4-bit, so the high nibbles of ph are zero and a 64-bit
    // lane shift by 4 cannot leak bits across byte boundaries.
    const __m128i p = _mm_or_si128(_mm_shuffle_epi8(tab, lo),
                                   _mm_slli_epi64(_mm_shuffle_epi8(tab, hi), 4));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  for (; i < nb; ++i)
    dst[i] ^= std::byte{gf4_byte_product(nib, std::to_integer<std::uint8_t>(src[i]))};
}

FAIRSHARE_TARGET("ssse3")
void gf8_axpy_ssse3(std::byte* dst, const std::byte* src, std::uint64_t c,
                    std::size_t n) {
  if (c == 0) return;
  std::size_t i = 0;
  if (c == 1) {
    for (; i + 16 <= n; i += 16) {
      const __m128i s =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_xor_si128(d, s));
    }
    for (; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& tabs = gf8_nibble_tables();
  const std::uint8_t* lo8 = tabs.lo[c & 0xFF];
  const std::uint8_t* hi8 = tabs.hi[c & 0xFF];
  const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(lo8));
  const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(hi8));
  const __m128i mask = _mm_set1_epi8(0x0F);
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(s, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                    _mm_shuffle_epi8(thi, hi));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  for (; i < n; ++i)
    dst[i] ^= std::byte{
        gf8_byte_product(lo8, hi8, std::to_integer<std::uint8_t>(src[i]))};
}

// ------------------------------------------------------------ AVX2 kernels

FAIRSHARE_TARGET("avx2")
void gf4_axpy_avx2(std::byte* dst, const std::byte* src, std::uint64_t c,
                   std::size_t n) {
  if (c == 0) return;
  const std::size_t nb = (n + 1) / 2;
  std::size_t i = 0;
  if (c == 1) {
    for (; i + 32 <= nb; i += 32) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_xor_si256(d, s));
    }
    for (; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* nib = gf4_nibble_table().t[c & 0xF];
  const __m256i tab = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  for (; i + 32 <= nb; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i lo = _mm256_and_si256(s, mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
    const __m256i p =
        _mm256_or_si256(_mm256_shuffle_epi8(tab, lo),
                        _mm256_slli_epi64(_mm256_shuffle_epi8(tab, hi), 4));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  for (; i < nb; ++i)
    dst[i] ^= std::byte{gf4_byte_product(nib, std::to_integer<std::uint8_t>(src[i]))};
}

FAIRSHARE_TARGET("avx2")
void gf8_axpy_avx2(std::byte* dst, const std::byte* src, std::uint64_t c,
                   std::size_t n) {
  if (c == 0) return;
  std::size_t i = 0;
  if (c == 1) {
    for (; i + 32 <= n; i += 32) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_xor_si256(d, s));
    }
    for (; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& tabs = gf8_nibble_tables();
  const std::uint8_t* lo8 = tabs.lo[c & 0xFF];
  const std::uint8_t* hi8 = tabs.hi[c & 0xFF];
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo8)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi8)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i lo = _mm256_and_si256(s, mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
    const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                                       _mm256_shuffle_epi8(thi, hi));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  for (; i < n; ++i)
    dst[i] ^= std::byte{
        gf8_byte_product(lo8, hi8, std::to_integer<std::uint8_t>(src[i]))};
}

// ------------------------------- GF(2^16)/GF(2^32) AVX2 split-table

// Both wide AVX2 kernels share one structure: shuffle 16/32-bit little-
// endian symbols into byte planes (one register per output-byte position),
// look up products a nibble at a time with 16-entry pshufb sub-tables, and
// apply the inverse unpack network to restore symbol order.  Per 128-bit
// lane the unpack semantics are identical, so the same network works for
// 256-bit registers; the symbol permutation it introduces cancels out.

FAIRSHARE_TARGET("avx2")
void gf16_axpy_avx2(std::byte* dst, const std::byte* src, std::uint64_t c,
                    std::size_t n) {
  if (c == 0) return;
  const std::size_t nb = n * 2;
  std::size_t i = 0;
  if (c == 1) {
    for (; i + 32 <= nb; i += 32) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_xor_si256(d, s));
    }
    for (; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const NibbleTables<16> nt(static_cast<std::uint16_t>(c));
  __m256i T[4][2];
  for (int j = 0; j < 4; ++j)
    for (int o = 0; o < 2; ++o)
      T[j][o] = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(nt.t[j][o])));
  const __m256i deint = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15));
  const __m256i maskf = _mm256_set1_epi8(0x0F);
  for (; i + 64 <= nb; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i t0 = _mm256_shuffle_epi8(v0, deint);
    const __m256i t1 = _mm256_shuffle_epi8(v1, deint);
    const __m256i lo = _mm256_unpacklo_epi64(t0, t1);
    const __m256i hi = _mm256_unpackhi_epi64(t0, t1);
    const __m256i ll = _mm256_and_si256(lo, maskf);
    const __m256i lh = _mm256_and_si256(_mm256_srli_epi64(lo, 4), maskf);
    const __m256i hl = _mm256_and_si256(hi, maskf);
    const __m256i hh = _mm256_and_si256(_mm256_srli_epi64(hi, 4), maskf);
    __m256i p0 = _mm256_xor_si256(_mm256_shuffle_epi8(T[0][0], ll),
                                  _mm256_shuffle_epi8(T[1][0], lh));
    p0 = _mm256_xor_si256(p0, _mm256_shuffle_epi8(T[2][0], hl));
    p0 = _mm256_xor_si256(p0, _mm256_shuffle_epi8(T[3][0], hh));
    __m256i p1 = _mm256_xor_si256(_mm256_shuffle_epi8(T[0][1], ll),
                                  _mm256_shuffle_epi8(T[1][1], lh));
    p1 = _mm256_xor_si256(p1, _mm256_shuffle_epi8(T[2][1], hl));
    p1 = _mm256_xor_si256(p1, _mm256_shuffle_epi8(T[3][1], hh));
    const __m256i r0 = _mm256_unpacklo_epi8(p0, p1);
    const __m256i r1 = _mm256_unpackhi_epi8(p0, p1);
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, r0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, r1));
  }
  for (; i < nb; i += 2) {
    std::uint16_t x, y;
    std::memcpy(&x, src + i, 2);
    std::memcpy(&y, dst + i, 2);
    y = static_cast<std::uint16_t>(y ^ nt.mul(x));
    std::memcpy(dst + i, &y, 2);
  }
}

FAIRSHARE_TARGET("avx2")
void gf32_axpy_avx2(std::byte* dst, const std::byte* src, std::uint64_t c,
                    std::size_t n) {
  if (c == 0) return;
  const std::size_t nb = n * 4;
  std::size_t i = 0;
  if (c == 1) {
    for (; i + 32 <= nb; i += 32) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_xor_si256(d, s));
    }
    for (; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const NibbleTables<32> nt(static_cast<std::uint32_t>(c));
  __m256i T[8][4];
  for (int j = 0; j < 8; ++j)
    for (int o = 0; o < 4; ++o)
      T[j][o] = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(nt.t[j][o])));
  const __m256i deint = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15));
  const __m256i maskf = _mm256_set1_epi8(0x0F);
  for (; i + 128 <= nb; i += 128) {
    __m256i t[4];
    for (int r = 0; r < 4; ++r)
      t[r] = _mm256_shuffle_epi8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                     src + i + 32 * static_cast<std::size_t>(r))),
                                 deint);
    const __m256i u0 = _mm256_unpacklo_epi32(t[0], t[1]);
    const __m256i u1 = _mm256_unpackhi_epi32(t[0], t[1]);
    const __m256i u2 = _mm256_unpacklo_epi32(t[2], t[3]);
    const __m256i u3 = _mm256_unpackhi_epi32(t[2], t[3]);
    const __m256i pl[4] = {_mm256_unpacklo_epi64(u0, u2),
                           _mm256_unpackhi_epi64(u0, u2),
                           _mm256_unpacklo_epi64(u1, u3),
                           _mm256_unpackhi_epi64(u1, u3)};
    __m256i q[4];
    for (int o = 0; o < 4; ++o) {
      __m256i acc = _mm256_setzero_si256();
      for (int k = 0; k < 4; ++k) {
        const __m256i lo = _mm256_and_si256(pl[k], maskf);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(pl[k], 4), maskf);
        acc = _mm256_xor_si256(acc, _mm256_shuffle_epi8(T[2 * k][o], lo));
        acc = _mm256_xor_si256(acc, _mm256_shuffle_epi8(T[2 * k + 1][o], hi));
      }
      q[o] = acc;
    }
    const __m256i w0 = _mm256_unpacklo_epi8(q[0], q[1]);
    const __m256i w1 = _mm256_unpacklo_epi8(q[2], q[3]);
    const __m256i w2 = _mm256_unpackhi_epi8(q[0], q[1]);
    const __m256i w3 = _mm256_unpackhi_epi8(q[2], q[3]);
    const __m256i z[4] = {_mm256_unpacklo_epi16(w0, w1),
                          _mm256_unpackhi_epi16(w0, w1),
                          _mm256_unpacklo_epi16(w2, w3),
                          _mm256_unpackhi_epi16(w2, w3)};
    for (int r = 0; r < 4; ++r) {
      std::byte* p = dst + i + 32 * static_cast<std::size_t>(r);
      const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                          _mm256_xor_si256(d, z[r]));
    }
  }
  for (; i < nb; i += 4) {
    std::uint32_t x, y;
    std::memcpy(&x, src + i, 4);
    std::memcpy(&y, dst + i, 4);
    y ^= nt.mul(x);
    std::memcpy(dst + i, &y, 4);
  }
}

// ----------------------------- GF(2^16)/GF(2^32) GFNI + AVX-512

// GCC 12's AVX-512 intrinsics pass an "undefined" register as the unused
// merge source, which its uninitialized-use checks flag once inlined here
// (crypto/md5.cpp meets the same).  The warning is about the header, not
// this code, so it is silenced for this section only.
#pragma GCC diagnostic push
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Same byte-plane transpose as the AVX2 tier (identical per 128-bit lane,
// four lanes per zmm), but each plane's contribution to an output byte is
// a single gf2p8affineqb with the 8x8 bit-block of the multiply-by-c
// matrix — no table memory, near-zero setup.
//
// A block is 64 symbols.  GfniPlanes<Bits>::load turns one into kBytes
// planes (plane p = byte p of every symbol, in a lane-local order) and
// store() applies the inverse permutation.  A row's last, partial block
// goes through the same code with masked loads (zero padding) and masked
// stores, so short rows such as coefficient rows run at vector speed and
// no symbol falls back to a scalar product.

template <unsigned Bits>
struct GfniPlanes {
  static constexpr unsigned kBytes = Bits / 8;
  static constexpr std::size_t kBlock = 64 * kBytes;  // bytes per block

  /// Byte mask of register r of a block whose first `len` bytes are live.
  static __mmask64 live(std::size_t len, unsigned r) {
    const std::size_t lo = 64 * r;
    if (len >= lo + 64) return ~__mmask64{0};
    return len > lo ? (__mmask64{1} << (len - lo)) - 1 : 0;
  }

  /// The planes of the block at p, of which the first `len` bytes are read
  /// (all of them when len >= kBlock).
  FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
  static void load(const std::byte* p, std::size_t len, __m512i* pl) {
    __m512i v[kBytes];
    if (len >= kBlock) {
      for (unsigned r = 0; r < kBytes; ++r)
        v[r] = _mm512_loadu_si512(p + 64 * r);
    } else {
      for (unsigned r = 0; r < kBytes; ++r)
        v[r] = _mm512_maskz_loadu_epi8(live(len, r), p + 64 * r);
    }
    if constexpr (Bits == 16) {
      const __m512i deint = _mm512_broadcast_i32x4(
          _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15));
      const __m512i t0 = _mm512_shuffle_epi8(v[0], deint);
      const __m512i t1 = _mm512_shuffle_epi8(v[1], deint);
      pl[0] = _mm512_unpacklo_epi64(t0, t1);
      pl[1] = _mm512_unpackhi_epi64(t0, t1);
    } else {
      static_assert(Bits == 32);
      const __m512i deint = _mm512_broadcast_i32x4(
          _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15));
      __m512i t[4];
      for (int r = 0; r < 4; ++r) t[r] = _mm512_shuffle_epi8(v[r], deint);
      const __m512i u0 = _mm512_unpacklo_epi32(t[0], t[1]);
      const __m512i u1 = _mm512_unpackhi_epi32(t[0], t[1]);
      const __m512i u2 = _mm512_unpacklo_epi32(t[2], t[3]);
      const __m512i u3 = _mm512_unpackhi_epi32(t[2], t[3]);
      pl[0] = _mm512_unpacklo_epi64(u0, u2);
      pl[1] = _mm512_unpackhi_epi64(u0, u2);
      pl[2] = _mm512_unpacklo_epi64(u1, u3);
      pl[3] = _mm512_unpackhi_epi64(u1, u3);
    }
  }

  /// Re-interleave planes `q` into symbol order and write the first `len`
  /// bytes of the block at p (all of them when len >= kBlock), xored into
  /// what is there unless `overwrite`.
  FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
  static void store(const __m512i* q, std::byte* p, std::size_t len,
                    bool overwrite) {
    __m512i z[kBytes];
    if constexpr (Bits == 16) {
      z[0] = _mm512_unpacklo_epi8(q[0], q[1]);
      z[1] = _mm512_unpackhi_epi8(q[0], q[1]);
    } else {
      const __m512i w0 = _mm512_unpacklo_epi8(q[0], q[1]);
      const __m512i w1 = _mm512_unpacklo_epi8(q[2], q[3]);
      const __m512i w2 = _mm512_unpackhi_epi8(q[0], q[1]);
      const __m512i w3 = _mm512_unpackhi_epi8(q[2], q[3]);
      z[0] = _mm512_unpacklo_epi16(w0, w1);
      z[1] = _mm512_unpackhi_epi16(w0, w1);
      z[2] = _mm512_unpacklo_epi16(w2, w3);
      z[3] = _mm512_unpackhi_epi16(w2, w3);
    }
    if (len >= kBlock) {
      for (unsigned r = 0; r < kBytes; ++r) {
        std::byte* at = p + 64 * r;
        if (!overwrite) z[r] = _mm512_xor_si512(z[r], _mm512_loadu_si512(at));
        _mm512_storeu_si512(at, z[r]);
      }
      return;
    }
    for (unsigned r = 0; r < kBytes; ++r) {
      std::byte* at = p + 64 * r;
      const __mmask64 m = live(len, r);
      if (!overwrite)
        z[r] = _mm512_xor_si512(z[r], _mm512_maskz_loadu_epi8(m, at));
      _mm512_mask_storeu_epi8(at, m, z[r]);
    }
  }
};

/// The multiply-by-c matrices of one scalar, broadcast.
template <unsigned Bits>
struct GfniScalar {
  static constexpr unsigned kBytes = Bits / 8;
  __m512i m[kBytes][kBytes];

  FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
  explicit GfniScalar(std::uint64_t c) {
    const GfniMatrices<Bits> gm(static_cast<typename GF<Bits>::Elem>(c));
    for (unsigned o = 0; o < kBytes; ++o)
      for (unsigned p = 0; p < kBytes; ++p)
        m[o][p] = _mm512_set1_epi64(static_cast<long long>(gm.m[o][p]));
  }

  /// q[o] = sum_p m[o][p] * pl[p]: one block times the scalar.
  FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
  void apply(const __m512i* pl, __m512i* q) const {
    for (unsigned o = 0; o < kBytes; ++o) {
      __m512i acc = _mm512_gf2p8affine_epi64_epi8(pl[0], m[o][0], 0);
      for (unsigned p = 1; p < kBytes; ++p)
        acc = _mm512_xor_si512(
            acc, _mm512_gf2p8affine_epi64_epi8(pl[p], m[o][p], 0));
      q[o] = acc;
    }
  }
};

template <unsigned Bits>
FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
void wide_axpy_gfni512(std::byte* dst, const std::byte* src, std::uint64_t c,
                       std::size_t n) {
  using P = GfniPlanes<Bits>;
  if (c == 0) return;
  const std::size_t nb = n * P::kBytes;
  if (c == 1) {
    std::size_t i = 0;
    for (; i + 64 <= nb; i += 64) {
      const __m512i s = _mm512_loadu_si512(src + i);
      const __m512i d = _mm512_loadu_si512(dst + i);
      _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
    }
    for (; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const GfniScalar<Bits> k(c);
  for (std::size_t i = 0; i < nb; i += P::kBlock) {
    const std::size_t len = std::min(P::kBlock, nb - i);
    __m512i pl[P::kBytes], q[P::kBytes];
    P::load(src + i, len, pl);
    k.apply(pl, q);
    P::store(q, dst + i, len, /*overwrite=*/false);
  }
}

// Row-block product.  The range is swept in strips of kStrip bytes; each
// strip transposes up to kTile sources to planes once (a thread-local
// scratch of one strip per source, at most 256 KiB), and then every group
// of up to four outputs keeps its planes in registers across those
// sources, sharing each plane load, and re-interleaves once per block.
// Partial sums fold in two products per vpternlogq.  A block wider than
// kTile sources accumulates tile by tile: the first tile stores, later
// tiles xor into the output.  A RowBlock without prepared matrices gets
// each output row's matrices built per tile and strip.
struct alignas(64) PlaneBlock {
  std::uint64_t q[8];
};

/// One block of `Rows` outputs: out_r = sum_j sum_p M_rj * plane_j[p] over
/// the jn sources whose planes start at `pl`, stored (or, unless `first`,
/// xored) into the first `len` bytes at d[r].
template <unsigned Bits, unsigned Rows>
FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
inline void gfni_product_block(const __m512i* pl, std::size_t jn,
                               const std::uint64_t* const* mats,
                               std::byte* const* d, std::size_t len,
                               bool first) {
  using P = GfniPlanes<Bits>;
  constexpr unsigned kBytes = P::kBytes;
  constexpr unsigned kWords = kBytes * kBytes;
  __m512i acc[Rows][kBytes];
  for (unsigned r = 0; r < Rows; ++r)
    for (unsigned o = 0; o < kBytes; ++o) acc[r][o] = _mm512_setzero_si512();
  for (std::size_t j = 0; j < jn; ++j, pl += kBytes) {
    __m512i x[kBytes];
    for (unsigned p = 0; p < kBytes; ++p) x[p] = _mm512_load_si512(pl + p);
    for (unsigned r = 0; r < Rows; ++r) {
      const std::uint64_t* m = mats[r] + j * kWords;
      for (unsigned o = 0; o < kBytes; ++o)
        for (unsigned p = 0; p < kBytes; p += 2) {
          const __m512i a = _mm512_gf2p8affine_epi64_epi8(
              x[p], _mm512_set1_epi64(static_cast<long long>(m[o * kBytes + p])),
              0);
          const __m512i b = _mm512_gf2p8affine_epi64_epi8(
              x[p + 1],
              _mm512_set1_epi64(static_cast<long long>(m[o * kBytes + p + 1])),
              0);
          acc[r][o] = _mm512_ternarylogic_epi64(acc[r][o], a, b, 0x96);
        }
    }
  }
  for (unsigned r = 0; r < Rows; ++r) P::store(acc[r], d[r], len, first);
}

template <unsigned Bits>
FAIRSHARE_TARGET("gfni,avx512f,avx512bw")
void wide_row_block_gfni512(const RowBlock& block, std::byte* const* dst,
                            const std::byte* const* src, std::size_t begin,
                            std::size_t end) {
  using P = GfniPlanes<Bits>;
  constexpr unsigned kBytes = P::kBytes;
  constexpr unsigned kWords = kBytes * kBytes;
  constexpr std::size_t kTile = 64;
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kStrip = 4096;
  static_assert(kStrip % P::kBlock == 0);
  const std::size_t outputs = block.outputs();
  const std::size_t inputs = block.inputs();

  thread_local std::vector<PlaneBlock> scratch;
  const std::size_t need = std::min(kTile, inputs) * kStrip / 64;
  if (scratch.size() < need) scratch.resize(need);
  __m512i* const planes = reinterpret_cast<__m512i*>(scratch.data());
  std::uint64_t built[kRows][kTile * kWords];
  for (std::size_t s0 = begin; s0 < end; s0 += kStrip) {
    const std::size_t s1 = std::min(s0 + kStrip, end);
    const std::size_t blocks = (s1 - s0 + P::kBlock - 1) / P::kBlock;
    for (std::size_t j0 = 0; j0 < inputs; j0 += kTile) {
      const std::size_t jn = std::min(kTile, inputs - j0);
      // planes[(b * jn + j) * kBytes + p]: block b's sources side by side.
      for (std::size_t j = 0; j < jn; ++j)
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::size_t at = s0 + b * P::kBlock;
          P::load(src[j0 + j] + at, s1 - at, planes + (b * jn + j) * kBytes);
        }
      for (std::size_t i = 0; i < outputs; i += kRows) {
        const std::size_t rows = std::min(kRows, outputs - i);
        const std::uint64_t* mats[kRows];
        for (std::size_t r = 0; r < rows; ++r) {
          mats[r] = block.matrices(i + r, j0);
          if (mats[r] != nullptr) continue;
          for (std::size_t j = 0; j < jn; ++j) {
            const GfniMatrices<Bits> gm(static_cast<typename GF<Bits>::Elem>(
                block.scalar(i + r, j0 + j)));
            std::memcpy(built[r] + j * kWords, gm.m, sizeof gm.m);
          }
          mats[r] = built[r];
        }
        for (std::size_t b = 0; b < blocks; ++b) {
          const __m512i* pl = planes + b * jn * kBytes;
          const std::size_t at = s0 + b * P::kBlock;
          std::byte* d[kRows];
          for (std::size_t r = 0; r < rows; ++r) d[r] = dst[i + r] + at;
          const std::size_t len = s1 - at;
          const bool first = j0 == 0;
          switch (rows) {
            case 4: gfni_product_block<Bits, 4>(pl, jn, mats, d, len, first); break;
            case 3: gfni_product_block<Bits, 3>(pl, jn, mats, d, len, first); break;
            case 2: gfni_product_block<Bits, 2>(pl, jn, mats, d, len, first); break;
            default: gfni_product_block<Bits, 1>(pl, jn, mats, d, len, first);
          }
        }
      }
    }
  }
}

#pragma GCC diagnostic pop

#undef FAIRSHARE_TARGET

#endif  // FAIRSHARE_HAVE_X86_KERNELS

// ----------------------------------------- GF(2^16)/GF(2^32) window64

// Window-table products consumed 64 bits per load: 4 GF(2^16) or 2
// GF(2^32) symbols per iteration, byte-extracted with shifts instead of
// one memcpy per symbol.  Little-endian only (symbol s must occupy bits
// [Bits*s, Bits*(s+1)) of the loaded word).
template <unsigned Bits>
void wide_axpy_win64(std::byte* dst, const std::byte* src, std::uint64_t c,
                     std::size_t n) {
  using Elem = typename GF<Bits>::Elem;
  if (c == 0) return;
  if (c == 1) {
    // Unit pivot: pure xor, widened to word width like the product loop.
    const std::size_t total = n * sizeof(Elem);
    std::size_t i = 0;
    for (; i + 8 <= total; i += 8) {
      std::uint64_t x, y;
      std::memcpy(&x, src + i, 8);
      std::memcpy(&y, dst + i, 8);
      y ^= x;
      std::memcpy(dst + i, &y, 8);
    }
    for (; i < total; ++i) dst[i] ^= src[i];
    return;
  }
  const WindowTables<Bits> tab(static_cast<Elem>(c));
  constexpr std::size_t kSyms = 64 / Bits;
  const std::size_t words = n / kSyms;
  const std::byte* s = src;
  std::byte* d = dst;
  for (std::size_t w = 0; w < words; ++w, s += 8, d += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, s, 8);
    std::memcpy(&y, d, 8);
    std::uint64_t r;
    if constexpr (Bits == 16) {
      r = static_cast<std::uint64_t>(static_cast<std::uint16_t>(
          tab.w[0][x & 0xFF] ^ tab.w[1][(x >> 8) & 0xFF]));
      r |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
               tab.w[0][(x >> 16) & 0xFF] ^ tab.w[1][(x >> 24) & 0xFF]))
           << 16;
      r |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
               tab.w[0][(x >> 32) & 0xFF] ^ tab.w[1][(x >> 40) & 0xFF]))
           << 32;
      r |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
               tab.w[0][(x >> 48) & 0xFF] ^ tab.w[1][(x >> 56) & 0xFF]))
           << 48;
    } else {
      static_assert(Bits == 32);
      r = static_cast<std::uint64_t>(static_cast<std::uint32_t>(
          tab.w[0][x & 0xFF] ^ tab.w[1][(x >> 8) & 0xFF] ^
          tab.w[2][(x >> 16) & 0xFF] ^ tab.w[3][(x >> 24) & 0xFF]));
      r |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               tab.w[0][(x >> 32) & 0xFF] ^ tab.w[1][(x >> 40) & 0xFF] ^
               tab.w[2][(x >> 48) & 0xFF] ^ tab.w[3][(x >> 56) & 0xFF]))
           << 32;
    }
    y ^= r;
    std::memcpy(d, &y, 8);
  }
  for (std::size_t i = words * kSyms; i < n; ++i) {
    Elem x, y;
    std::memcpy(&x, src + i * sizeof(Elem), sizeof(Elem));
    std::memcpy(&y, dst + i * sizeof(Elem), sizeof(Elem));
    y = static_cast<Elem>(y ^ tab.mul(x));
    std::memcpy(dst + i * sizeof(Elem), &y, sizeof(Elem));
  }
}

}  // namespace

std::vector<RowKernels> accelerated_row_kernels(FieldId id,
                                                const CpuFeatures& feat) {
  constexpr bool little = std::endian::native == std::endian::little;
  std::vector<RowKernels> tiers;
  switch (id) {
    case FieldId::gf2_4:
#if FAIRSHARE_HAVE_X86_KERNELS
      if (feat.ssse3) tiers.push_back(axpy_tier<4, &gf4_axpy_ssse3>("ssse3"));
      if (feat.avx2) tiers.push_back(axpy_tier<4, &gf4_axpy_avx2>("avx2"));
#endif
      break;
    case FieldId::gf2_8:
#if FAIRSHARE_HAVE_X86_KERNELS
      if (feat.ssse3) tiers.push_back(axpy_tier<8, &gf8_axpy_ssse3>("ssse3"));
      if (feat.avx2) tiers.push_back(axpy_tier<8, &gf8_axpy_avx2>("avx2"));
#endif
      break;
    case FieldId::gf2_16:
      if constexpr (little)
        tiers.push_back(axpy_tier<16, &wide_axpy_win64<16>>("window64"));
#if FAIRSHARE_HAVE_X86_KERNELS
      if (feat.avx2) tiers.push_back(axpy_tier<16, &gf16_axpy_avx2>("avx2"));
      if (feat.gfni && feat.avx512f && feat.avx512bw)
        tiers.push_back({&wide_axpy_gfni512<16>, &wide_row_block_gfni512<16>,
                         true, "gfni512"});
#endif
      break;
    case FieldId::gf2_32:
      if constexpr (little)
        tiers.push_back(axpy_tier<32, &wide_axpy_win64<32>>("window64"));
#if FAIRSHARE_HAVE_X86_KERNELS
      if (feat.avx2) tiers.push_back(axpy_tier<32, &gf32_axpy_avx2>("avx2"));
      if (feat.gfni && feat.avx512f && feat.avx512bw)
        tiers.push_back({&wide_axpy_gfni512<32>, &wide_row_block_gfni512<32>,
                         true, "gfni512"});
#endif
      break;
  }
  (void)feat;
  return tiers;
}

}  // namespace fairshare::gf::detail
