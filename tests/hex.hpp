// Lower-case hex images of byte strings, for golden-frame tests: a
// mismatch prints both images, so a moved byte is easy to locate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fairshare::test_support {

inline std::string to_hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    const auto v = std::to_integer<std::uint8_t>(b);
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xF]);
  }
  return out;
}

inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  return to_hex(std::as_bytes(bytes));
}

/// Inverse of to_hex; expects an even count of lower-case hex digits.
inline std::vector<std::byte> from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::byte> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::byte{static_cast<std::uint8_t>(
        nibble(hex[2 * i]) << 4 | nibble(hex[2 * i + 1]))};
  return out;
}

}  // namespace fairshare::test_support
