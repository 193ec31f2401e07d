// Packed row operations vs. the scalar reference, across all four fields.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gf/row_ops.hpp"
#include "gf/window_tables.hpp"
#include "sim/rng.hpp"

namespace fairshare::gf {
namespace {

class RowOpsTest : public ::testing::TestWithParam<FieldId> {
 protected:
  const FieldView& f() const { return field_view(GetParam()); }

  std::vector<std::byte> random_row(std::size_t n, sim::SplitMix64& rng) {
    std::vector<std::byte> row(f().row_bytes(n), std::byte{0});
    for (std::size_t i = 0; i < n; ++i)
      f().set(row.data(), i, rng.next() & (f().order - 1));
    return row;
  }

  std::uint64_t random_scalar(sim::SplitMix64& rng) {
    return rng.next() & (f().order - 1);
  }
};

TEST_P(RowOpsTest, GetSetRoundTrip) {
  sim::SplitMix64 rng(42);
  const std::size_t n = 257;  // odd length exercises nibble packing
  std::vector<std::byte> row(f().row_bytes(n), std::byte{0});
  std::vector<std::uint64_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = rng.next() & (f().order - 1);
    f().set(row.data(), i, expected[i]);
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(f().get(row.data(), i), expected[i]) << "index " << i;
}

TEST_P(RowOpsTest, SetDoesNotDisturbNeighbors) {
  const std::size_t n = 8;
  std::vector<std::byte> row(f().row_bytes(n), std::byte{0});
  for (std::size_t i = 0; i < n; ++i) f().set(row.data(), i, 1);
  f().set(row.data(), 3, f().order - 1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(f().get(row.data(), i), i == 3 ? f().order - 1 : 1u);
}

TEST_P(RowOpsTest, AxpyMatchesScalarReference) {
  sim::SplitMix64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(300);
    auto dst = random_row(n, rng);
    const auto src = random_row(n, rng);
    const std::uint64_t c = random_scalar(rng);

    std::vector<std::uint64_t> expected(n);
    for (std::size_t i = 0; i < n; ++i)
      expected[i] = f().get(dst.data(), i) ^ f().mul(c, f().get(src.data(), i));

    f().axpy(dst.data(), src.data(), c, n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(f().get(dst.data(), i), expected[i])
          << "n=" << n << " c=" << c << " i=" << i;
  }
}

TEST_P(RowOpsTest, AxpyWithZeroScalarIsNoOp) {
  sim::SplitMix64 rng(8);
  const std::size_t n = 64;
  auto dst = random_row(n, rng);
  const auto before = dst;
  const auto src = random_row(n, rng);
  f().axpy(dst.data(), src.data(), 0, n);
  EXPECT_EQ(dst, before);
}

TEST_P(RowOpsTest, AxpyWithOneIsXor) {
  sim::SplitMix64 rng(9);
  const std::size_t n = 64;
  auto dst = random_row(n, rng);
  const auto src = random_row(n, rng);
  std::vector<std::uint64_t> expected(n);
  for (std::size_t i = 0; i < n; ++i)
    expected[i] = f().get(dst.data(), i) ^ f().get(src.data(), i);
  f().axpy(dst.data(), src.data(), 1, n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(f().get(dst.data(), i), expected[i]);
}

TEST_P(RowOpsTest, AxpyTwiceCancels) {
  // Characteristic 2: y ^= c*x twice restores y.
  sim::SplitMix64 rng(10);
  const std::size_t n = 100;
  auto dst = random_row(n, rng);
  const auto before = dst;
  const auto src = random_row(n, rng);
  const std::uint64_t c = random_scalar(rng);
  f().axpy(dst.data(), src.data(), c, n);
  f().axpy(dst.data(), src.data(), c, n);
  EXPECT_EQ(dst, before);
}

// Scaling a row by c is the aliased axpy(row, row, c ^ 1, n): in
// characteristic 2, row + (c + 1) * row = c * row.  Pivot normalization in
// linalg relies on it.
TEST_P(RowOpsTest, ScaleMatchesScalarReference) {
  sim::SplitMix64 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(300);
    auto row = random_row(n, rng);
    const std::uint64_t c = random_scalar(rng);
    std::vector<std::uint64_t> expected(n);
    for (std::size_t i = 0; i < n; ++i)
      expected[i] = f().mul(c, f().get(row.data(), i));
    f().axpy(row.data(), row.data(), c ^ 1, n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(f().get(row.data(), i), expected[i]);
  }
}

TEST_P(RowOpsTest, ScaleThenInverseScaleRestores) {
  sim::SplitMix64 rng(12);
  const std::size_t n = 128;
  auto row = random_row(n, rng);
  const auto before = row;
  std::uint64_t c;
  do {
    c = random_scalar(rng);
  } while (c == 0);
  f().axpy(row.data(), row.data(), c ^ 1, n);
  f().axpy(row.data(), row.data(), f().inv(c) ^ 1, n);
  EXPECT_EQ(row, before);
}

TEST_P(RowOpsTest, RowBytesMatchesSymbolWidth) {
  switch (GetParam()) {
    case FieldId::gf2_4:
      EXPECT_EQ(f().row_bytes(7), 4u);
      EXPECT_EQ(f().row_bytes(8), 4u);
      break;
    case FieldId::gf2_8:
      EXPECT_EQ(f().row_bytes(8), 8u);
      break;
    case FieldId::gf2_16:
      EXPECT_EQ(f().row_bytes(8), 16u);
      break;
    case FieldId::gf2_32:
      EXPECT_EQ(f().row_bytes(8), 32u);
      break;
  }
}

TEST_P(RowOpsTest, ScalarOpsAgreeWithView) {
  sim::SplitMix64 rng(13);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t a = random_scalar(rng);
    std::uint64_t b = random_scalar(rng);
    if (a == 0) a = 1;
    EXPECT_EQ(f().mul(a, f().inv(a)), 1u);
    EXPECT_EQ(f().mul(a, b), f().mul(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFields, RowOpsTest,
                         ::testing::Values(FieldId::gf2_4, FieldId::gf2_8,
                                           FieldId::gf2_16, FieldId::gf2_32),
                         [](const auto& info) {
                           switch (info.param) {
                             case FieldId::gf2_4: return "GF16";
                             case FieldId::gf2_8: return "GF256";
                             case FieldId::gf2_16: return "GF65536";
                             default: return "GF2pow32";
                           }
                         });

// The GFNI bit matrices are built by transposing byte-gathered blocks of
// cx_powers.  The oracle is the construction they replaced: one bit
// extraction per matrix entry, straight from the operand layout (row i of
// block (o, k) at qword byte 7 - i, row bit j = bit 8o + i of c * x^(8k + j)).
template <unsigned Bits>
void expect_gfni_matrices_match_bitwise(std::uint64_t c) {
  using M = detail::GfniMatrices<Bits>;
  const M got(static_cast<typename M::Elem>(c));
  const auto cx = detail::cx_powers<Bits>(c);
  for (unsigned o = 0; o < M::kBytes; ++o)
    for (unsigned k = 0; k < M::kBytes; ++k) {
      std::uint64_t want = 0;
      for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t row = 0;
        for (unsigned j = 0; j < 8; ++j)
          row |= ((cx[8 * k + j] >> (8 * o + i)) & 1) << j;
        want |= row << (8 * (7 - i));
      }
      ASSERT_EQ(got.m[o][k], want)
          << "GF(2^" << Bits << ") c=" << c << " block " << o << "," << k;
    }
}

TEST(GfniMatrices, MatchBitwiseConstruction) {
  sim::SplitMix64 rng(77);
  for (const std::uint64_t c : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{0xFFFF}}) {
    expect_gfni_matrices_match_bitwise<16>(c);
  }
  for (const std::uint64_t c : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{0xFFFFFFFF}}) {
    expect_gfni_matrices_match_bitwise<32>(c);
  }
  for (int i = 0; i < 500; ++i) {
    expect_gfni_matrices_match_bitwise<16>(rng.next() & 0xFFFF);
    expect_gfni_matrices_match_bitwise<32>(rng.next() & 0xFFFFFFFF);
  }
}

}  // namespace
}  // namespace fairshare::gf
