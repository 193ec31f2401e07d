#include "gf/row_ops.hpp"

#include <array>
#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

#include "gf/field.hpp"
#include "gf/row_ops_simd.hpp"
#include "gf/window_tables.hpp"

namespace fairshare::gf {

namespace {

// ------------------------------------------------------- GF(2^4), packed

// P[c][b] multiplies both nibbles of byte b by the scalar c.
struct Gf4PackedTable {
  std::array<std::array<std::uint8_t, 256>, 16> t{};
  Gf4PackedTable() {
    for (unsigned c = 0; c < 16; ++c) {
      for (unsigned b = 0; b < 256; ++b) {
        const auto lo = GF<4>::mul(static_cast<std::uint8_t>(c),
                                   static_cast<std::uint8_t>(b & 0xF));
        const auto hi = GF<4>::mul(static_cast<std::uint8_t>(c),
                                   static_cast<std::uint8_t>(b >> 4));
        t[c][b] = static_cast<std::uint8_t>(lo | (hi << 4));
      }
    }
  }
};

const Gf4PackedTable& gf4_table() {
  static const Gf4PackedTable tab;
  return tab;
}

std::size_t gf4_row_bytes(std::size_t n) { return (n + 1) / 2; }

std::uint64_t gf4_get(const std::byte* row, std::size_t i) {
  const auto b = std::to_integer<std::uint8_t>(row[i / 2]);
  return (i % 2 == 0) ? (b & 0xF) : (b >> 4);
}

void gf4_set(std::byte* row, std::size_t i, std::uint64_t v) {
  auto b = std::to_integer<std::uint8_t>(row[i / 2]);
  if (i % 2 == 0)
    b = static_cast<std::uint8_t>((b & 0xF0) | (v & 0xF));
  else
    b = static_cast<std::uint8_t>((b & 0x0F) | ((v & 0xF) << 4));
  row[i / 2] = std::byte{b};
}

void gf4_axpy(std::byte* dst, const std::byte* src, std::uint64_t c,
              std::size_t n) {
  if (c == 0) return;
  const std::size_t nb = gf4_row_bytes(n);
  if (c == 1) {
    // Pure xor; no table needed (unit pivots during elimination).
    for (std::size_t i = 0; i < nb; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& tab = gf4_table().t[c & 0xF];
  for (std::size_t i = 0; i < nb; ++i)
    dst[i] ^= std::byte{tab[std::to_integer<std::uint8_t>(src[i])]};
}

void gf4_scale(std::byte* row, std::uint64_t c, std::size_t n) {
  if (c == 1) return;
  const auto& tab = gf4_table().t[c & 0xF];
  const std::size_t nb = gf4_row_bytes(n);
  for (std::size_t i = 0; i < nb; ++i)
    row[i] = std::byte{tab[std::to_integer<std::uint8_t>(row[i])]};
}

// ---------------------------------------------------------------- GF(2^8)

// Full 256x256 product table; row c is the premultiplied lookup for axpy.
struct Gf8Table {
  std::vector<std::uint8_t> t;
  Gf8Table() : t(256 * 256) {
    for (unsigned c = 0; c < 256; ++c)
      for (unsigned b = 0; b < 256; ++b)
        t[c * 256 + b] = GF<8>::mul(static_cast<std::uint8_t>(c),
                                    static_cast<std::uint8_t>(b));
  }
};

const Gf8Table& gf8_table() {
  static const Gf8Table tab;
  return tab;
}

std::size_t gf8_row_bytes(std::size_t n) { return n; }

std::uint64_t gf8_get(const std::byte* row, std::size_t i) {
  return std::to_integer<std::uint8_t>(row[i]);
}

void gf8_set(std::byte* row, std::size_t i, std::uint64_t v) {
  row[i] = std::byte{static_cast<std::uint8_t>(v)};
}

void gf8_axpy(std::byte* dst, const std::byte* src, std::uint64_t c,
              std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    // Pure xor; no table needed (unit pivots during elimination).
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* tab = gf8_table().t.data() + (c & 0xFF) * 256;
  for (std::size_t i = 0; i < n; ++i)
    dst[i] ^= std::byte{tab[std::to_integer<std::uint8_t>(src[i])]};
}

void gf8_scale(std::byte* row, std::uint64_t c, std::size_t n) {
  if (c == 1) return;
  const std::uint8_t* tab = gf8_table().t.data() + (c & 0xFF) * 256;
  for (std::size_t i = 0; i < n; ++i)
    row[i] = std::byte{tab[std::to_integer<std::uint8_t>(row[i])]};
}

// --------------------------------------------- GF(2^16) / GF(2^32) window

// Per-scalar window tables (gf/window_tables.hpp); each symbol product is
// B lookups + B-1 xors.  This is the portable symbol-at-a-time consumer;
// row_ops_simd.cpp widens it to 64-bit loads on little-endian hosts.
using detail::WindowTables;

template <unsigned Bits>
std::size_t wide_row_bytes(std::size_t n) {
  return n * (Bits / 8);
}

template <unsigned Bits>
std::uint64_t wide_get(const std::byte* row, std::size_t i) {
  typename GF<Bits>::Elem v;
  std::memcpy(&v, row + i * sizeof(v), sizeof(v));
  return v;
}

template <unsigned Bits>
void wide_set(std::byte* row, std::size_t i, std::uint64_t v) {
  const auto e = static_cast<typename GF<Bits>::Elem>(v);
  std::memcpy(row + i * sizeof(e), &e, sizeof(e));
}

template <unsigned Bits>
void wide_axpy(std::byte* dst, const std::byte* src, std::uint64_t c,
               std::size_t n) {
  using Elem = typename GF<Bits>::Elem;
  if (c == 0) return;
  if (c == 1) {
    // Pure xor; no table needed.
    for (std::size_t i = 0; i < n * sizeof(Elem); ++i) dst[i] ^= src[i];
    return;
  }
  const WindowTables<Bits> tab(static_cast<Elem>(c));
  for (std::size_t i = 0; i < n; ++i) {
    Elem x, y;
    std::memcpy(&x, src + i * sizeof(Elem), sizeof(Elem));
    std::memcpy(&y, dst + i * sizeof(Elem), sizeof(Elem));
    y = static_cast<Elem>(y ^ tab.mul(x));
    std::memcpy(dst + i * sizeof(Elem), &y, sizeof(Elem));
  }
}

template <unsigned Bits>
void wide_scale(std::byte* row, std::uint64_t c, std::size_t n) {
  using Elem = typename GF<Bits>::Elem;
  if (c == 1) return;
  if (c == 0) {
    // Annihilation; no table needed (row elimination to zero).
    std::memset(row, 0, n * sizeof(Elem));
    return;
  }
  const WindowTables<Bits> tab(static_cast<Elem>(c));
  for (std::size_t i = 0; i < n; ++i) {
    Elem x;
    std::memcpy(&x, row + i * sizeof(Elem), sizeof(Elem));
    x = tab.mul(x);
    std::memcpy(row + i * sizeof(Elem), &x, sizeof(Elem));
  }
}

// ------------------------------------------------------ scalar adapters

template <unsigned Bits>
std::uint64_t scalar_mul(std::uint64_t a, std::uint64_t b) {
  return GF<Bits>::mul(static_cast<typename GF<Bits>::Elem>(a),
                       static_cast<typename GF<Bits>::Elem>(b));
}

template <unsigned Bits>
std::uint64_t scalar_inv(std::uint64_t a) {
  return GF<Bits>::inv(static_cast<typename GF<Bits>::Elem>(a));
}

template <unsigned Bits>
std::uint64_t scalar_pow(std::uint64_t a, std::uint64_t e) {
  return GF<Bits>::pow(static_cast<typename GF<Bits>::Elem>(a), e);
}

}  // namespace

CpuFeatures cpu_features() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const CpuFeatures feat = [] {
    CpuFeatures f;
    f.ssse3 = __builtin_cpu_supports("ssse3") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.gfni = __builtin_cpu_supports("gfni") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
    f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
    return f;
  }();
  return feat;
#else
  return {};
#endif
}

std::span<const FieldView> kernel_tiers(FieldId id) {
  using detail::axpy_row_block;
  // Built exactly once (thread-safe magic static): each field's scalar
  // view, then one copy of it per accelerated tier the host supports, with
  // that tier's row kernels overlaid.
  static const std::array<std::vector<FieldView>, 4> tiers = [] {
    std::array<std::vector<FieldView>, 4> t{{
        {{FieldId::gf2_4, 4, 16, &scalar_mul<4>, &scalar_inv<4>,
          &scalar_pow<4>, &gf4_row_bytes, &gf4_get, &gf4_set, &gf4_axpy,
          &gf4_scale, &axpy_row_block<4, &gf4_axpy>, false, "scalar"}},
        {{FieldId::gf2_8, 8, 256, &scalar_mul<8>, &scalar_inv<8>,
          &scalar_pow<8>, &gf8_row_bytes, &gf8_get, &gf8_set, &gf8_axpy,
          &gf8_scale, &axpy_row_block<8, &gf8_axpy>, false, "scalar"}},
        {{FieldId::gf2_16, 16, 65536, &scalar_mul<16>, &scalar_inv<16>,
          &scalar_pow<16>, &wide_row_bytes<16>, &wide_get<16>,
          &wide_set<16>, &wide_axpy<16>, &wide_scale<16>,
          &axpy_row_block<16, &wide_axpy<16>>, false, "scalar"}},
        {{FieldId::gf2_32, 32, std::uint64_t{1} << 32, &scalar_mul<32>,
          &scalar_inv<32>, &scalar_pow<32>, &wide_row_bytes<32>,
          &wide_get<32>, &wide_set<32>, &wide_axpy<32>, &wide_scale<32>,
          &axpy_row_block<32, &wide_axpy<32>>, false, "scalar"}},
    }};
    for (auto& views : t) {
      for (const detail::RowKernels& k :
           detail::accelerated_row_kernels(views.front().id, cpu_features())) {
        FieldView v = views.front();
        v.axpy = k.axpy;
        v.scale = k.scale;
        v.row_block_product = k.row_block_product;
        v.row_block_matrices = k.row_block_matrices;
        v.kernel = k.name;
        views.push_back(v);
      }
    }
    return t;
  }();
  return tiers[static_cast<std::size_t>(id)];
}

const FieldView& field_view(FieldId id) { return kernel_tiers(id).back(); }

const FieldView& scalar_field_view(FieldId id) {
  return kernel_tiers(id).front();
}

namespace {

template <unsigned Bits>
void append_matrices(std::vector<std::uint64_t>& out, std::uint64_t c) {
  const detail::GfniMatrices<Bits> gm(
      static_cast<typename GF<Bits>::Elem>(c));
  out.insert(out.end(), &gm.m[0][0], &gm.m[0][0] + (Bits / 8) * (Bits / 8));
}

}  // namespace

RowBlock::RowBlock(const FieldView& f, std::vector<const std::byte*> rows,
                   std::size_t inputs)
    : get_(f.get), rows_(std::move(rows)), inputs_(inputs) {
  if (!f.row_block_matrices || outputs() * inputs_ > kMaxPrepared) return;
  words_ = (f.bits / 8) * (f.bits / 8);
  matrices_.reserve(outputs() * inputs_ * words_);
  for (std::size_t i = 0; i < outputs(); ++i)
    for (std::size_t j = 0; j < inputs_; ++j) {
      if (f.bits == 16)
        append_matrices<16>(matrices_, scalar(i, j));
      else
        append_matrices<32>(matrices_, scalar(i, j));
    }
}

}  // namespace fairshare::gf
