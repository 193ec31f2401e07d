#include "crypto/md5.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FAIRSHARE_HAVE_MD5_AVX512 1
#include <immintrin.h>
#else
#define FAIRSHARE_HAVE_MD5_AVX512 0
#endif

namespace fairshare::crypto {

namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// RFC 1321, Section 3.4, as data: step i (of 64) folds message word
// kSteps[i].word and constant kSteps[i].sine into the state and rotates by
// kSteps[i].shift; its auxiliary function is F, G, H or I by round i / 16.
// Each step is a = b + ((a + fn(b, c, d) + x + t) <<< s) with (a, b, c, d)
// rotating one register per step.  Both round bodies below unroll it at
// compile time (an index_sequence fold), so each sees straight-line code:
// no table lookup, index arithmetic or per-step branch at run time.
struct Step {
  int word;
  std::uint32_t sine;
  int shift;
};

constexpr Step kSteps[64] = {
    {0, 0xd76aa478u, 7},   {1, 0xe8c7b756u, 12},  {2, 0x242070dbu, 17},
    {3, 0xc1bdceeeu, 22},  {4, 0xf57c0fafu, 7},   {5, 0x4787c62au, 12},
    {6, 0xa8304613u, 17},  {7, 0xfd469501u, 22},  {8, 0x698098d8u, 7},
    {9, 0x8b44f7afu, 12},  {10, 0xffff5bb1u, 17}, {11, 0x895cd7beu, 22},
    {12, 0x6b901122u, 7},  {13, 0xfd987193u, 12}, {14, 0xa679438eu, 17},
    {15, 0x49b40821u, 22},

    {1, 0xf61e2562u, 5},   {6, 0xc040b340u, 9},   {11, 0x265e5a51u, 14},
    {0, 0xe9b6c7aau, 20},  {5, 0xd62f105du, 5},   {10, 0x02441453u, 9},
    {15, 0xd8a1e681u, 14}, {4, 0xe7d3fbc8u, 20},  {9, 0x21e1cde6u, 5},
    {14, 0xc33707d6u, 9},  {3, 0xf4d50d87u, 14},  {8, 0x455a14edu, 20},
    {13, 0xa9e3e905u, 5},  {2, 0xfcefa3f8u, 9},   {7, 0x676f02d9u, 14},
    {12, 0x8d2a4c8au, 20},

    {5, 0xfffa3942u, 4},   {8, 0x8771f681u, 11},  {11, 0x6d9d6122u, 16},
    {14, 0xfde5380cu, 23}, {1, 0xa4beea44u, 4},   {4, 0x4bdecfa9u, 11},
    {7, 0xf6bb4b60u, 16},  {10, 0xbebfbc70u, 23}, {13, 0x289b7ec6u, 4},
    {0, 0xeaa127fau, 11},  {3, 0xd4ef3085u, 16},  {6, 0x04881d05u, 23},
    {9, 0xd9d4d039u, 4},   {12, 0xe6db99e5u, 11}, {15, 0x1fa27cf8u, 16},
    {2, 0xc4ac5665u, 23},

    {0, 0xf4292244u, 6},   {7, 0x432aff97u, 10},  {14, 0xab9423a7u, 15},
    {5, 0xfc93a039u, 21},  {12, 0x655b59c3u, 6},  {3, 0x8f0ccc92u, 10},
    {10, 0xffeff47du, 15}, {1, 0x85845dd1u, 21},  {8, 0x6fa87e4fu, 6},
    {15, 0xfe2ce6e0u, 10}, {6, 0xa3014314u, 15},  {13, 0x4e0811a1u, 21},
    {4, 0xf7537e82u, 6},   {11, 0xbd3af235u, 10}, {2, 0x2ad7d2bbu, 15},
    {9, 0xeb86d391u, 21},
};

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

// Step I updates state word (4 - I) mod 4 (a, d, c, b, a, ...); the other
// three, in order, are the auxiliary function's x, y and z.
template <std::size_t I>
inline void scalar_step(std::uint32_t* v, const std::uint32_t* m) {
  constexpr Step st = kSteps[I];
  constexpr std::size_t t = (4 - I % 4) % 4;
  const std::uint32_t x = v[(t + 1) % 4], y = v[(t + 2) % 4],
                      z = v[(t + 3) % 4];
  std::uint32_t fn;
  if constexpr (I < 16)
    fn = z ^ (x & (y ^ z));  // F: (x & y) | (~x & z)
  else if constexpr (I < 32)
    fn = y ^ (z & (x ^ y));  // G: (x & z) | (y & ~z)
  else if constexpr (I < 48)
    fn = x ^ y ^ z;  // H
  else
    fn = y ^ (x | ~z);  // I
  v[t] = x + std::rotl(v[t] + fn + m[st.word] + st.sine, st.shift);
}

template <std::size_t... I>
inline void scalar_rounds(std::uint32_t* v, const std::uint32_t* m,
                          std::index_sequence<I...>) {
  (scalar_step<I>(v, m), ...);
}

}  // namespace

void Md5::reset() {
  std::copy(std::begin(kInit), std::end(kInit), state_.begin());
  length_ = 0;
  buffered_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  std::uint32_t v[4] = {state_[0], state_[1], state_[2], state_[3]};
  scalar_rounds(v, m, std::make_index_sequence<64>());
  for (int i = 0; i < 4; ++i) state_[i] += v[i];
}

void Md5::update(std::span<const std::uint8_t> data) {
  length_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

void Md5::update(std::span<const std::byte> data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Md5Digest Md5::finish() {
  const std::uint64_t bit_length = length_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(std::span<const std::uint8_t>(&pad_byte, 1));
  const std::uint8_t zero = 0;
  while (buffered_ != 56) update(std::span<const std::uint8_t>(&zero, 1));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) store_le32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Md5Digest Md5::hash(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Md5Digest Md5::hash(std::span<const std::byte> data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Md5Digest Md5::hash(std::string_view data) {
  return hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

// ------------------------------------------------------------ md5_many

namespace {

std::vector<Md5Digest> md5_scalar(std::span<const Md5Input> inputs) {
  std::vector<Md5Digest> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Md5 h;
    h.update(inputs[i].head);
    h.update(inputs[i].body);
    out[i] = h.finish();
  }
  return out;
}

#if FAIRSHARE_HAVE_MD5_AVX512

// GCC 12's AVX-512 intrinsics pass an "undefined" register as the unused
// merge source, which its uninitialized-use checks flag once inlined here.
// The warning is about the header, not this code, so it is silenced for
// this section only.
#pragma GCC diagnostic push
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define FAIRSHARE_AVX512 __attribute__((target("avx512f")))

constexpr std::size_t kLanes = 16;

// vpternlogd truth tables of F, G, H and I over (x, y, z) = (0xF0, 0xCC,
// 0xAA): F = (x & y) | (~x & z), G = (x & z) | (y & ~z), H = x ^ y ^ z,
// I = y ^ (x | ~z).
constexpr int kTernlog[4] = {0xCA, 0xE4, 0x96, 0x39};

// Bytes [start, start + 64) of the padded stream head || body || 0x80 ||
// zeros || 64-bit bit length, for a block the body alone cannot supply.
void padded_block(const Md5Input& in, std::size_t start, std::uint8_t* out) {
  const std::size_t head = in.head.size();
  const std::size_t len = head + in.body.size();
  std::memset(out, 0, 64);
  for (std::size_t i = start; i < std::min(start + 64, len); ++i)
    out[i - start] = static_cast<std::uint8_t>(
        i < head ? in.head[i] : in.body[i - head]);
  if (len >= start && len < start + 64) out[len - start] = 0x80;
  if ((len + 8) / 64 * 64 == start)  // the last block carries the length
    for (int i = 0; i < 8; ++i)
      out[56 + i] = static_cast<std::uint8_t>((std::uint64_t{len} * 8) >>
                                              (8 * i));
}

// Load lane i's 64-byte block from p[i] and transpose the 16 x 16 matrix of
// 32-bit words, so m[j] holds message word j of every lane: 32-bit, then
// 64-bit unpacks within 128-bit lanes, then two rounds of 128-bit shuffles.
FAIRSHARE_AVX512 inline void load_words(const std::uint8_t* const* p,
                                        __m512i* m) {
  __m512i t[kLanes];
  for (std::size_t i = 0; i < kLanes; i += 2) {
    const __m512i r0 = _mm512_loadu_si512(p[i]);
    const __m512i r1 = _mm512_loadu_si512(p[i + 1]);
    t[i] = _mm512_unpacklo_epi32(r0, r1);
    t[i + 1] = _mm512_unpackhi_epi32(r0, r1);
  }
  // u[4q + j]: 128-bit lane L holds word 4L + j of rows 4q .. 4q + 3.
  __m512i u[kLanes];
  for (std::size_t q = 0; q < kLanes; q += 4) {
    u[q] = _mm512_unpacklo_epi64(t[q], t[q + 2]);
    u[q + 1] = _mm512_unpackhi_epi64(t[q], t[q + 2]);
    u[q + 2] = _mm512_unpacklo_epi64(t[q + 1], t[q + 3]);
    u[q + 3] = _mm512_unpackhi_epi64(t[q + 1], t[q + 3]);
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const __m512i a = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
    const __m512i b = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xDD);
    const __m512i c = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
    const __m512i d = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xDD);
    m[j] = _mm512_shuffle_i32x4(a, c, 0x88);
    m[j + 8] = _mm512_shuffle_i32x4(a, c, 0xDD);
    m[j + 4] = _mm512_shuffle_i32x4(b, d, 0x88);
    m[j + 12] = _mm512_shuffle_i32x4(b, d, 0xDD);
  }
}

// scalar_step on sixteen lanes: vpternlogd for the auxiliary function and
// vprold for the rotation.
template <std::size_t I>
FAIRSHARE_AVX512 inline void lane_step(__m512i* v, const __m512i* m) {
  constexpr Step st = kSteps[I];
  constexpr std::size_t t = (4 - I % 4) % 4;
  const __m512i x = v[(t + 1) % 4];
  const __m512i fn = _mm512_ternarylogic_epi32(
      x, v[(t + 2) % 4], v[(t + 3) % 4], kTernlog[I / 16]);
  const __m512i sine = _mm512_set1_epi32(static_cast<int>(st.sine));
  const __m512i sum = _mm512_add_epi32(_mm512_add_epi32(v[t], fn),
                                       _mm512_add_epi32(m[st.word], sine));
  v[t] = _mm512_add_epi32(x, _mm512_rol_epi32(sum, st.shift));
}

template <std::size_t... I>
FAIRSHARE_AVX512 inline void lane_rounds(__m512i* v, const __m512i* m,
                                         std::index_sequence<I...>) {
  (lane_step<I>(v, m), ...);
}

// One pass: inputs [0, n), n <= 16, one per lane; lanes past n repeat input
// 0 and are discarded.  Blocks inside the body are read in place; only the
// few that hold head bytes or padding are assembled.
FAIRSHARE_AVX512 void md5_x16(const Md5Input* in, std::size_t n,
                              Md5Digest* out) {
  const std::size_t head = in[0].head.size();
  const std::size_t len = head + in[0].body.size();
  const std::size_t blocks = (len + 8) / 64 + 1;
  alignas(64) std::uint8_t scratch[kLanes][64];
  __m512i v[4];
  for (int i = 0; i < 4; ++i)
    v[i] = _mm512_set1_epi32(static_cast<int>(kInit[i]));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t start = 64 * b;
    const bool in_body = start >= head && start + 64 <= len;
    const std::uint8_t* p[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (lane >= n) {
        p[lane] = p[0];
      } else if (in_body) {
        p[lane] = reinterpret_cast<const std::uint8_t*>(in[lane].body.data()) +
                  (start - head);
      } else {
        padded_block(in[lane], start, scratch[lane]);
        p[lane] = scratch[lane];
      }
    }
    __m512i m[16];
    load_words(p, m);
    const __m512i prev[4] = {v[0], v[1], v[2], v[3]};
    lane_rounds(v, m, std::make_index_sequence<64>());
    for (int i = 0; i < 4; ++i) v[i] = _mm512_add_epi32(v[i], prev[i]);
  }
  alignas(64) std::uint32_t words[4][kLanes];
  for (int i = 0; i < 4; ++i) _mm512_store_si512(words[i], v[i]);
  for (std::size_t lane = 0; lane < n; ++lane)
    for (int i = 0; i < 4; ++i)
      store_le32(out[lane].data() + 4 * i, words[i][lane]);
}

std::vector<Md5Digest> md5_avx512(std::span<const Md5Input> inputs) {
  std::vector<Md5Digest> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); i += kLanes)
    md5_x16(inputs.data() + i, std::min(kLanes, inputs.size() - i),
            out.data() + i);
  return out;
}

#pragma GCC diagnostic pop

#endif  // FAIRSHARE_HAVE_MD5_AVX512

}  // namespace

std::span<const Md5Tier> md5_tiers() {
  static const std::vector<Md5Tier> tiers = [] {
    std::vector<Md5Tier> t{{"scalar", 1, &md5_scalar}};
#if FAIRSHARE_HAVE_MD5_AVX512
    if (__builtin_cpu_supports("avx512f"))
      t.push_back({"avx512", kLanes, &md5_avx512});
#endif
    return t;
  }();
  return tiers;
}

std::vector<Md5Digest> md5_many(std::span<const Md5Input> inputs) {
  for ([[maybe_unused]] const Md5Input& in : inputs)
    assert(in.head.size() == inputs[0].head.size() &&
           in.body.size() == inputs[0].body.size());
  const auto tiers = md5_tiers();
  return (inputs.size() == 1 ? tiers.front() : tiers.back()).run(inputs);
}

std::string to_hex(std::span<const std::uint8_t> digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (std::uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace fairshare::crypto
