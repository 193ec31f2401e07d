// Incremental rank tracking and the progressive decoder core.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/progressive.hpp"
#include "sim/rng.hpp"

namespace fairshare::linalg {
namespace {

using gf::FieldId;

std::vector<std::uint64_t> random_symbols(FieldId field, std::size_t n,
                                          sim::SplitMix64& rng) {
  const auto& f = gf::field_view(field);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.next() & (f.order - 1);
  return out;
}

// Incremental rank as the encoder's screening uses it: a ProgressiveSolver
// with no payload, fed packed coefficient rows.
class IncrementalRankTest : public ::testing::TestWithParam<FieldId> {
 protected:
  bool add(ProgressiveSolver& tracker, const std::vector<std::uint64_t>& row) {
    const auto& f = gf::field_view(GetParam());
    std::vector<std::byte> packed(f.row_bytes(row.size()));
    for (std::size_t i = 0; i < row.size(); ++i)
      f.set(packed.data(), i, row[i]);
    return tracker.add_row(packed.data(), nullptr);
  }
};

TEST_P(IncrementalRankTest, AcceptsIndependentRows) {
  ProgressiveSolver tracker(GetParam(), 4, 0);
  // Unit vectors are independent.
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint64_t> row(4, 0);
    row[i] = 1;
    EXPECT_TRUE(add(tracker, row)) << i;
    EXPECT_EQ(tracker.rank(), i + 1);
  }
  EXPECT_TRUE(tracker.complete());
}

TEST_P(IncrementalRankTest, RejectsZeroRow) {
  ProgressiveSolver tracker(GetParam(), 3, 0);
  EXPECT_FALSE(add(tracker, {0, 0, 0}));
  EXPECT_EQ(tracker.rank(), 0u);
}

TEST_P(IncrementalRankTest, RejectsDuplicateRow) {
  ProgressiveSolver tracker(GetParam(), 3, 0);
  const std::vector<std::uint64_t> row{1, 2, 3};
  EXPECT_TRUE(add(tracker, row));
  EXPECT_FALSE(add(tracker, row));
  EXPECT_EQ(tracker.rank(), 1u);
}

TEST_P(IncrementalRankTest, RejectsScaledRow) {
  const auto& f = gf::field_view(GetParam());
  ProgressiveSolver tracker(GetParam(), 3, 0);
  std::vector<std::uint64_t> row{1, 2, 3};
  EXPECT_TRUE(add(tracker, row));
  std::vector<std::uint64_t> scaled(3);
  const std::uint64_t c = f.order - 1;  // nonzero scalar
  for (int i = 0; i < 3; ++i) scaled[i] = f.mul(c, row[i]);
  EXPECT_FALSE(add(tracker, scaled));
}

TEST_P(IncrementalRankTest, RejectsLinearCombination) {
  const auto& f = gf::field_view(GetParam());
  ProgressiveSolver tracker(GetParam(), 4, 0);
  const auto r1 = std::vector<std::uint64_t>{1, 0, 5 & (f.order - 1), 1};
  const auto r2 = std::vector<std::uint64_t>{0, 1, 1, 7 & (f.order - 1)};
  ASSERT_TRUE(add(tracker, r1));
  ASSERT_TRUE(add(tracker, r2));
  std::vector<std::uint64_t> combo(4);
  for (int i = 0; i < 4; ++i) combo[i] = r1[i] ^ f.mul(3 & (f.order - 1), r2[i]);
  EXPECT_FALSE(add(tracker, combo));
  EXPECT_EQ(tracker.rank(), 2u);
}

TEST_P(IncrementalRankTest, AgreesWithBatchRankOnRandomRows) {
  sim::SplitMix64 rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t cols = 6;
    const std::size_t rows = 9;
    ProgressiveSolver tracker(GetParam(), cols, 0);
    Matrix m(GetParam(), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = random_symbols(GetParam(), cols, rng);
      for (std::size_t c = 0; c < cols; ++c) m.set(r, c, row[c]);
      add(tracker, row);
    }
    EXPECT_EQ(tracker.rank(), rank(m));
  }
}

// ------------------------------------------------------ ProgressiveSolver

class ProgressiveSolverTest : public ::testing::TestWithParam<FieldId> {
 protected:
  const gf::FieldView& f() const { return gf::field_view(GetParam()); }

  // Build a random system: k chunks of m symbols, coefficient rows, and
  // the coded payloads y_i = sum_j b_ij x_j.
  struct Instance {
    std::size_t k, m;
    Matrix chunks;  // k x m
    Matrix coeffs;  // rows x k
    Matrix coded;   // rows x m
  };

  Instance make_instance(std::size_t k, std::size_t m, std::size_t rows,
                         sim::SplitMix64& rng) {
    Instance inst{k, m, Matrix(GetParam(), k, m), Matrix(GetParam(), rows, k),
                  Matrix(GetParam(), 0, 0)};
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t c = 0; c < m; ++c)
        inst.chunks.set(r, c, rng.next() & (f().order - 1));
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < k; ++c)
        inst.coeffs.set(r, c, rng.next() & (f().order - 1));
    inst.coded = inst.coeffs.mul(inst.chunks);
    return inst;
  }
};

TEST_P(ProgressiveSolverTest, RecoversChunksFromRandomRows) {
  sim::SplitMix64 rng(31);
  const std::size_t k = 6, m = 40;
  for (int trial = 0; trial < 5; ++trial) {
    auto inst = make_instance(k, m, k + 4, rng);
    ProgressiveSolver solver(GetParam(), k, m);
    std::size_t fed = 0;
    for (std::size_t r = 0; r < inst.coeffs.rows() && !solver.complete();
         ++r) {
      solver.add_row(inst.coeffs.row(r), inst.coded.row(r));
      ++fed;
    }
    if (!solver.complete()) continue;  // rank-deficient draw (rare)
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(std::memcmp(solver.chunk(i), inst.chunks.row(i),
                            f().row_bytes(m)),
                0)
          << "chunk " << i << " after " << fed << " rows";
    }
  }
}

TEST_P(ProgressiveSolverTest, ExactlyKIndependentRowsSuffice) {
  sim::SplitMix64 rng(32);
  const std::size_t k = 5, m = 16;
  auto inst = make_instance(k, m, 3 * k, rng);
  ProgressiveSolver solver(GetParam(), k, m);
  std::size_t innovative = 0;
  for (std::size_t r = 0; r < inst.coeffs.rows() && !solver.complete(); ++r) {
    if (solver.add_row(inst.coeffs.row(r), inst.coded.row(r))) ++innovative;
  }
  if (solver.complete()) {
    EXPECT_EQ(innovative, k);
  }
}

TEST_P(ProgressiveSolverTest, DuplicateRowsAreNotInnovative) {
  sim::SplitMix64 rng(33);
  const std::size_t k = 4, m = 8;
  auto inst = make_instance(k, m, k, rng);
  ProgressiveSolver solver(GetParam(), k, m);
  ASSERT_TRUE(solver.add_row(inst.coeffs.row(0), inst.coded.row(0)));
  EXPECT_FALSE(solver.add_row(inst.coeffs.row(0), inst.coded.row(0)));
  EXPECT_EQ(solver.rank(), 1u);
}

TEST_P(ProgressiveSolverTest, UnitRowsDecodeImmediately) {
  // Feeding the identity as coefficients means payloads ARE the chunks.
  sim::SplitMix64 rng(34);
  const std::size_t k = 3, m = 10;
  Matrix chunks(GetParam(), k, m);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < m; ++c)
      chunks.set(r, c, rng.next() & (f().order - 1));
  ProgressiveSolver solver(GetParam(), k, m);
  for (std::size_t r = 0; r < k; ++r) {
    std::vector<std::byte> e(f().row_bytes(k));
    f().set(e.data(), r, 1);
    EXPECT_TRUE(solver.add_row(e.data(), chunks.row(r)));
  }
  ASSERT_TRUE(solver.complete());
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(
        std::memcmp(solver.chunk(i), chunks.row(i), f().row_bytes(m)), 0);
}

TEST_P(ProgressiveSolverTest, OrderOfArrivalDoesNotMatter) {
  sim::SplitMix64 rng(35);
  const std::size_t k = 5, m = 12;
  auto inst = make_instance(k, m, k, rng);
  if (rank(inst.coeffs) != k) return;  // rare unlucky draw

  ProgressiveSolver forward(GetParam(), k, m);
  for (std::size_t r = 0; r < k; ++r)
    forward.add_row(inst.coeffs.row(r), inst.coded.row(r));
  ProgressiveSolver backward(GetParam(), k, m);
  for (std::size_t r = k; r-- > 0;)
    backward.add_row(inst.coeffs.row(r), inst.coded.row(r));

  ASSERT_TRUE(forward.complete());
  ASSERT_TRUE(backward.complete());
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(std::memcmp(forward.chunk(i), backward.chunk(i),
                          f().row_bytes(m)),
              0);
}

TEST_P(ProgressiveSolverTest, KEqualsOne) {
  sim::SplitMix64 rng(36);
  const std::size_t m = 6;
  Matrix chunk(GetParam(), 1, m);
  for (std::size_t c = 0; c < m; ++c)
    chunk.set(0, c, rng.next() & (f().order - 1));
  ProgressiveSolver solver(GetParam(), 1, m);
  // Scaled copy: payload = c * chunk, coefficient = c.
  std::uint64_t c = 0;
  while (c == 0) c = rng.next() & (f().order - 1);
  std::vector<std::byte> payload(f().row_bytes(m));
  std::memcpy(payload.data(), chunk.row(0), payload.size());
  f().scale(payload.data(), c, m);
  std::vector<std::byte> coeff(f().row_bytes(1));
  f().set(coeff.data(), 0, c);
  EXPECT_TRUE(solver.add_row(coeff.data(), payload.data()));
  ASSERT_TRUE(solver.complete());
  EXPECT_EQ(std::memcmp(solver.chunk(0), chunk.row(0), f().row_bytes(m)), 0);
}

INSTANTIATE_TEST_SUITE_P(AllFields, IncrementalRankTest,
                         ::testing::Values(FieldId::gf2_4, FieldId::gf2_8,
                                           FieldId::gf2_16, FieldId::gf2_32));
INSTANTIATE_TEST_SUITE_P(AllFields, ProgressiveSolverTest,
                         ::testing::Values(FieldId::gf2_4, FieldId::gf2_8,
                                           FieldId::gf2_16, FieldId::gf2_32));

}  // namespace
}  // namespace fairshare::linalg
