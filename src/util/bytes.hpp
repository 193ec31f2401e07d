// Little-endian byte codec under every wire frame and disk container.
//
// ByteWriter appends integers, f64s, fixed byte runs and u32-length blobs
// to a growing buffer; ByteReader walks a span under one total, bounded
// contract:
//
//  * the first short read fails the reader, and every later read returns
//    zero (or an empty span) — so a decoder may read a whole record and
//    test ok() once;
//  * at_end() is true only when the reader is ok and fully consumed;
//  * a blob's u32 length is checked against remaining() before anything
//    is allocated, and an element count passes only when
//    count × min_element_bytes ≤ remaining(), so a hostile length or
//    count cannot make a decoder allocate more than the input could hold;
//  * view(n) hands out a bounded sub-span without copying.
//
// Format rules (tags, geometry checks, field limits) stay with the
// modules that own each format; this header knows only bytes.  load_le
// and store_le cover fixed-size headers written in place.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace fairshare::util {

/// Write `v` little-endian into out[0, sizeof(T)).
template <std::unsigned_integral T>
constexpr void store_le(std::byte* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out[i] = std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
}

/// Read a little-endian T from in[0, sizeof(T)).
template <std::unsigned_integral T>
constexpr T load_le(const std::byte* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v = static_cast<T>(v | static_cast<T>(std::to_integer<T>(in[i])
                                          << (8 * i)));
  return v;
}

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  void put_bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void put_bytes(std::span<const std::uint8_t> data) {
    put_bytes(std::as_bytes(data));
  }

  /// u32 length, then the bytes.
  void put_blob(std::span<const std::byte> data) {
    put_u32(static_cast<std::uint32_t>(data.size()));
    put_bytes(data);
  }
  void put_blob(std::span<const std::uint8_t> data) {
    put_blob(std::as_bytes(data));
  }

  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  template <std::unsigned_integral T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_le(buf_.data() + at, v);
  }

  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
  std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// The next `n` bytes, in place; empty (and the reader failed) when
  /// fewer remain.
  std::span<const std::byte> view(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    pos_ += n;
    return data_.subspan(pos_ - n, n);
  }

  /// Fill `out` exactly.
  bool get_bytes(std::span<std::uint8_t> out) {
    const auto src = view(out.size());
    if (!ok_) return false;
    std::copy(src.begin(), src.end(), std::as_writable_bytes(out).begin());
    return true;
  }

  /// A u32-length blob, bounded by what remains before it is allocated.
  template <typename Byte>
    requires(sizeof(Byte) == 1)
  bool get_blob(std::vector<Byte>& out) {
    const auto src = view(get_u32());
    if (!ok_) return false;
    const auto* p = reinterpret_cast<const Byte*>(src.data());
    out.assign(p, p + src.size());
    return true;
  }

  /// An element count of type T that passes only when `count` elements of
  /// at least `min_element_bytes` each could still fit; otherwise the
  /// reader fails and the count reads as zero.
  template <std::unsigned_integral T>
  T get_count(std::size_t min_element_bytes) {
    const T count = get_le<T>();
    if (min_element_bytes != 0 && count > remaining() / min_element_bytes)
      ok_ = false;
    return ok_ ? count : T{0};
  }

 private:
  template <std::unsigned_integral T>
  T get_le() {
    const auto src = view(sizeof(T));
    return ok_ ? load_le<T>(src.data()) : T{0};
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fairshare::util
