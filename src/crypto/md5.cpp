#include "crypto/md5.hpp"

#include <bit>
#include <cstring>

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

// RFC 1321, Section 3.4: the four auxiliary functions and one step,
// a = b + ((a + fn(b, c, d) + x + t) <<< s).  Written out per round with
// literal constants and fixed message-word indices, so the compiler sees
// straight-line code: no table lookup, index arithmetic or per-step branch.
inline std::uint32_t f_fn(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return z ^ (x & (y ^ z));  // (x & y) | (~x & z)
}
inline std::uint32_t g_fn(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (z & (x ^ y));  // (x & z) | (y & ~z)
}
inline std::uint32_t h_fn(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ y ^ z;
}
inline std::uint32_t i_fn(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

template <std::uint32_t (*Fn)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t t, int s) {
  a = b + std::rotl(a + Fn(b, c, d) + x + t, s);
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  length_ = 0;
  buffered_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  step<f_fn>(a, b, c, d, m[0], 0xd76aa478u, 7);
  step<f_fn>(d, a, b, c, m[1], 0xe8c7b756u, 12);
  step<f_fn>(c, d, a, b, m[2], 0x242070dbu, 17);
  step<f_fn>(b, c, d, a, m[3], 0xc1bdceeeu, 22);
  step<f_fn>(a, b, c, d, m[4], 0xf57c0fafu, 7);
  step<f_fn>(d, a, b, c, m[5], 0x4787c62au, 12);
  step<f_fn>(c, d, a, b, m[6], 0xa8304613u, 17);
  step<f_fn>(b, c, d, a, m[7], 0xfd469501u, 22);
  step<f_fn>(a, b, c, d, m[8], 0x698098d8u, 7);
  step<f_fn>(d, a, b, c, m[9], 0x8b44f7afu, 12);
  step<f_fn>(c, d, a, b, m[10], 0xffff5bb1u, 17);
  step<f_fn>(b, c, d, a, m[11], 0x895cd7beu, 22);
  step<f_fn>(a, b, c, d, m[12], 0x6b901122u, 7);
  step<f_fn>(d, a, b, c, m[13], 0xfd987193u, 12);
  step<f_fn>(c, d, a, b, m[14], 0xa679438eu, 17);
  step<f_fn>(b, c, d, a, m[15], 0x49b40821u, 22);

  step<g_fn>(a, b, c, d, m[1], 0xf61e2562u, 5);
  step<g_fn>(d, a, b, c, m[6], 0xc040b340u, 9);
  step<g_fn>(c, d, a, b, m[11], 0x265e5a51u, 14);
  step<g_fn>(b, c, d, a, m[0], 0xe9b6c7aau, 20);
  step<g_fn>(a, b, c, d, m[5], 0xd62f105du, 5);
  step<g_fn>(d, a, b, c, m[10], 0x02441453u, 9);
  step<g_fn>(c, d, a, b, m[15], 0xd8a1e681u, 14);
  step<g_fn>(b, c, d, a, m[4], 0xe7d3fbc8u, 20);
  step<g_fn>(a, b, c, d, m[9], 0x21e1cde6u, 5);
  step<g_fn>(d, a, b, c, m[14], 0xc33707d6u, 9);
  step<g_fn>(c, d, a, b, m[3], 0xf4d50d87u, 14);
  step<g_fn>(b, c, d, a, m[8], 0x455a14edu, 20);
  step<g_fn>(a, b, c, d, m[13], 0xa9e3e905u, 5);
  step<g_fn>(d, a, b, c, m[2], 0xfcefa3f8u, 9);
  step<g_fn>(c, d, a, b, m[7], 0x676f02d9u, 14);
  step<g_fn>(b, c, d, a, m[12], 0x8d2a4c8au, 20);

  step<h_fn>(a, b, c, d, m[5], 0xfffa3942u, 4);
  step<h_fn>(d, a, b, c, m[8], 0x8771f681u, 11);
  step<h_fn>(c, d, a, b, m[11], 0x6d9d6122u, 16);
  step<h_fn>(b, c, d, a, m[14], 0xfde5380cu, 23);
  step<h_fn>(a, b, c, d, m[1], 0xa4beea44u, 4);
  step<h_fn>(d, a, b, c, m[4], 0x4bdecfa9u, 11);
  step<h_fn>(c, d, a, b, m[7], 0xf6bb4b60u, 16);
  step<h_fn>(b, c, d, a, m[10], 0xbebfbc70u, 23);
  step<h_fn>(a, b, c, d, m[13], 0x289b7ec6u, 4);
  step<h_fn>(d, a, b, c, m[0], 0xeaa127fau, 11);
  step<h_fn>(c, d, a, b, m[3], 0xd4ef3085u, 16);
  step<h_fn>(b, c, d, a, m[6], 0x04881d05u, 23);
  step<h_fn>(a, b, c, d, m[9], 0xd9d4d039u, 4);
  step<h_fn>(d, a, b, c, m[12], 0xe6db99e5u, 11);
  step<h_fn>(c, d, a, b, m[15], 0x1fa27cf8u, 16);
  step<h_fn>(b, c, d, a, m[2], 0xc4ac5665u, 23);

  step<i_fn>(a, b, c, d, m[0], 0xf4292244u, 6);
  step<i_fn>(d, a, b, c, m[7], 0x432aff97u, 10);
  step<i_fn>(c, d, a, b, m[14], 0xab9423a7u, 15);
  step<i_fn>(b, c, d, a, m[5], 0xfc93a039u, 21);
  step<i_fn>(a, b, c, d, m[12], 0x655b59c3u, 6);
  step<i_fn>(d, a, b, c, m[3], 0x8f0ccc92u, 10);
  step<i_fn>(c, d, a, b, m[10], 0xffeff47du, 15);
  step<i_fn>(b, c, d, a, m[1], 0x85845dd1u, 21);
  step<i_fn>(a, b, c, d, m[8], 0x6fa87e4fu, 6);
  step<i_fn>(d, a, b, c, m[15], 0xfe2ce6e0u, 10);
  step<i_fn>(c, d, a, b, m[6], 0xa3014314u, 15);
  step<i_fn>(b, c, d, a, m[13], 0x4e0811a1u, 21);
  step<i_fn>(a, b, c, d, m[4], 0xf7537e82u, 6);
  step<i_fn>(d, a, b, c, m[11], 0xbd3af235u, 10);
  step<i_fn>(c, d, a, b, m[2], 0x2ad7d2bbu, 15);
  step<i_fn>(b, c, d, a, m[9], 0xeb86d391u, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
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
