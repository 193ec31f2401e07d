// Differential suite for the row-kernel tiers: every tier kernel_tiers()
// lists for this host (ssse3 / avx2 / window64 / gfni512, and scalar
// itself) must be bit-for-bit identical to scalar_field_view() on whole
// buffers — including the multiplied padding nibble of an odd-length
// GF(2^4) row and rows that start at unaligned byte offsets — and its
// row-block product must equal repeated scalar axpy.  Each case walks the
// whole tier list in one process, so lower tiers are covered on hosts
// whose dispatch lands above them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gf/row_ops.hpp"
#include "sim/rng.hpp"

namespace fairshare::gf {
namespace {

// Symbol counts straddling every vector-width boundary (16/32-byte SIMD
// steps, 8-byte window64 words) plus odd lengths for GF(2^4) packing.
constexpr std::size_t kLengths[] = {1,  2,  3,  7,   8,   15,  16,  17,
                                    31, 32, 33, 63,  64,  65,  127, 128,
                                    129, 255, 256, 257, 1000, 1001, 4096, 4099};

// Byte offsets applied independently to dst and src: SIMD kernels use
// unaligned loads, so a row may start anywhere.
constexpr std::size_t kOffsets[] = {0, 1, 3, 5};

std::vector<std::byte> random_bytes(std::size_t n, sim::SplitMix64& rng) {
  std::vector<std::byte> buf(n);
  for (auto& b : buf) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return buf;
}

class SimdDispatchTest : public ::testing::TestWithParam<FieldId> {
 protected:
  std::span<const FieldView> tiers() const { return kernel_tiers(GetParam()); }
  const FieldView& scalar() const { return scalar_field_view(GetParam()); }

  void diff_axpy(const FieldView& tier, std::size_t n, std::uint64_t c,
                 std::size_t dst_off, std::size_t src_off,
                 sim::SplitMix64& rng) {
    const std::size_t nb = scalar().row_bytes(n);
    const auto src = random_bytes(nb + src_off, rng);
    auto want = random_bytes(nb + dst_off, rng);
    auto got = want;
    scalar().axpy(want.data() + dst_off, src.data() + src_off, c, n);
    tier.axpy(got.data() + dst_off, src.data() + src_off, c, n);
    ASSERT_EQ(want, got) << "axpy n=" << n << " c=" << c
                         << " dst_off=" << dst_off << " src_off=" << src_off;
  }

  // The aliased axpy(row, row, c ^ 1, n) must scale the row by c: in
  // characteristic 2, row + (c + 1) * row = c * row.  The tier must match
  // scalar on the whole buffer, and every symbol the row's bytes hold must
  // be c times what it was, by mul; for an odd GF(2^4) length that
  // includes the padding nibble, which the kernels multiply like any other.
  void diff_aliased(const FieldView& tier, std::size_t n, std::uint64_t c,
                    std::size_t off, sim::SplitMix64& rng) {
    const std::size_t nb = scalar().row_bytes(n);
    const auto before = random_bytes(nb + off, rng);
    auto want = before;
    auto got = before;
    scalar().axpy(want.data() + off, want.data() + off, c ^ 1, n);
    tier.axpy(got.data() + off, got.data() + off, c ^ 1, n);
    ASSERT_EQ(want, got) << "aliased axpy n=" << n << " c^1=" << (c ^ 1)
                         << " off=" << off;
    for (std::size_t i = 0; i < nb * 8 / scalar().bits; ++i)
      ASSERT_EQ(scalar().get(got.data() + off, i),
                scalar().mul(c, scalar().get(before.data() + off, i)))
          << "aliased axpy n=" << n << " c^1=" << (c ^ 1) << " off=" << off
          << " symbol " << i;
  }

  std::uint64_t random_scalar(sim::SplitMix64& rng) const {
    return rng.next() & (scalar().order - 1);
  }

  // The row-block product of `outputs` x `inputs` scalars over n symbols
  // must equal clearing each output and adding one scalar-path axpy per
  // source.  Every row sits at its own unaligned offset; the product runs
  // over the byte range [begin, begin + row_bytes(n)) of each row and must
  // leave the bytes around it alone.  Scalars cycle through 0, 1 and
  // random values.  The block is built for the tier, and again for the
  // scalar view (which prepares nothing), so a prepared kernel is held to
  // its unprepared path too.
  void diff_row_block(const FieldView& tier, std::size_t outputs,
                      std::size_t inputs, std::size_t n, std::size_t begin,
                      sim::SplitMix64& rng) {
    const std::size_t nb = scalar().row_bytes(n);
    const std::size_t span = begin + nb + 7;  // 7 guard bytes after the range
    std::vector<std::vector<std::byte>> srcs, coeffs;
    std::vector<const std::byte*> src, rows;
    for (std::size_t j = 0; j < inputs; ++j) {
      srcs.push_back(random_bytes(span + kOffsets[j % 4], rng));
      src.push_back(srcs.back().data() + kOffsets[j % 4]);
    }
    for (std::size_t i = 0; i < outputs; ++i) {
      coeffs.emplace_back(scalar().row_bytes(inputs));
      for (std::size_t j = 0; j < inputs; ++j) {
        const std::size_t pick = (i + 3 * j) % 4;
        scalar().set(coeffs.back().data(), j,
                     pick == 0 ? 0 : pick == 1 ? 1 : random_scalar(rng));
      }
      rows.push_back(coeffs.back().data());
    }
    std::vector<std::vector<std::byte>> want;
    for (std::size_t i = 0; i < outputs; ++i) {
      want.push_back(random_bytes(span + kOffsets[(i + 1) % 4], rng));
      std::byte* d = want.back().data() + kOffsets[(i + 1) % 4] + begin;
      std::memset(d, 0, nb);
      for (std::size_t j = 0; j < inputs; ++j)
        scalar().axpy(d, src[j] + begin, scalar().get(rows[i], j), n);
    }
    for (const FieldView* built_for : {&tier, &scalar()}) {
      const RowBlock block(*built_for, rows, inputs);
      auto got = want;
      std::vector<std::byte*> dst;
      for (std::size_t i = 0; i < outputs; ++i) {
        std::byte* d = got[i].data() + kOffsets[(i + 1) % 4];
        for (std::size_t b = begin; b < begin + nb; ++b)
          d[b] = std::byte{0xEE};  // the product must overwrite the range
        dst.push_back(d);
      }
      tier.row_block_product(block, dst.data(), src.data(), begin,
                             begin + nb);
      for (std::size_t i = 0; i < outputs; ++i)
        ASSERT_EQ(want[i], got[i])
            << "row block " << outputs << "x" << inputs << " n=" << n
            << " begin=" << begin << " output " << i << " block built for "
            << built_for->kernel;
    }
  }
};

TEST_P(SimdDispatchTest, ReportsKernelVariant) {
  // The list runs from the scalar view to the dispatched one and holds a
  // tier exactly when the host's features and byte order allow it.
  const FieldId id = GetParam();
  const CpuFeatures feat = cpu_features();
  std::vector<std::string> want{"scalar"};
  if (id == FieldId::gf2_16 || id == FieldId::gf2_32) {
    if (std::endian::native == std::endian::little) want.push_back("window64");
    if (feat.avx2) want.push_back("avx2");
    if (feat.gfni && feat.avx512f && feat.avx512bw) want.push_back("gfni512");
  } else {
    if (feat.ssse3) want.push_back("ssse3");
    if (feat.avx2) want.push_back("avx2");
  }
  std::vector<std::string> got;
  for (const FieldView& tier : tiers()) {
    got.push_back(tier.kernel);
    // Scalar ops other than the row kernels are shared verbatim.
    EXPECT_EQ(tier.mul, scalar().mul);
    EXPECT_EQ(tier.row_bytes, scalar().row_bytes);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(&tiers().front(), &scalar());
  EXPECT_EQ(&tiers().back(), &field_view(id));
}

TEST_P(SimdDispatchTest, WideFieldTierMatchesFeaturesAndCap) {
  // The wide fields must dispatch to the best tier the feature set allows,
  // and that tier caps the list: no tier above it is enumerated.
  const FieldId id = GetParam();
  if (id != FieldId::gf2_16 && id != FieldId::gf2_32) GTEST_SKIP();
  const CpuFeatures feat = cpu_features();
  const std::string kernel = field_view(id).kernel;
  if (feat.gfni && feat.avx512f && feat.avx512bw) {
    EXPECT_EQ(kernel, "gfni512");
  } else if (feat.avx2) {
    EXPECT_EQ(kernel, "avx2");
  } else if (std::endian::native == std::endian::little) {
    EXPECT_EQ(kernel, "window64");
  } else {
    EXPECT_EQ(kernel, "scalar");
  }
  EXPECT_EQ(kernel, std::string(tiers().back().kernel));
}

TEST_P(SimdDispatchTest, AxpyMatchesScalarAcrossLengths) {
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0xD1FF + static_cast<std::uint64_t>(GetParam()));
    for (const std::size_t n : kLengths) {
      diff_axpy(tier, n, 0, 0, 0, rng);
      diff_axpy(tier, n, 1, 0, 0, rng);
      for (int t = 0; t < 4; ++t)
        diff_axpy(tier, n, random_scalar(rng), 0, 0, rng);
    }
  }
}

TEST_P(SimdDispatchTest, AxpyMatchesScalarUnaligned) {
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0xA11 + static_cast<std::uint64_t>(GetParam()));
    for (const std::size_t dst_off : kOffsets)
      for (const std::size_t src_off : kOffsets) {
        diff_axpy(tier, 257, 1, dst_off, src_off, rng);
        diff_axpy(tier, 257, random_scalar(rng), dst_off, src_off, rng);
        diff_axpy(tier, 4099, random_scalar(rng), dst_off, src_off, rng);
      }
  }
}

TEST_P(SimdDispatchTest, ScaleMatchesScalarAcrossLengths) {
  // Pivot normalization scales a row in place with the aliased axpy
  // (diff_aliased); sweep every length and offset.  c = 0 and c = 1 hit
  // the xor and no-op fast paths.
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0x5CA1E + static_cast<std::uint64_t>(GetParam()));
    for (const std::size_t n : kLengths) {
      diff_aliased(tier, n, 0, 0, rng);
      diff_aliased(tier, n, 1, 0, rng);
      for (int t = 0; t < 4; ++t)
        diff_aliased(tier, n, random_scalar(rng), 0, rng);
      for (const std::size_t off : kOffsets)
        diff_aliased(tier, n, random_scalar(rng), off, rng);
    }
  }
}

TEST_P(SimdDispatchTest, AxpyAllowsAliasedDstSrc) {
  // The FieldView contract allows dst == src; every tier must agree with
  // scalar there, and the row must come out as c times itself, for
  // c = 0, 1 and random (33 is an odd GF(2^4) length).
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0xA1A5 + static_cast<std::uint64_t>(GetParam()));
    for (const std::size_t n : {33u, 257u, 4099u}) {
      diff_aliased(tier, n, 0, 0, rng);
      diff_aliased(tier, n, 1, 0, rng);
      diff_aliased(tier, n, random_scalar(rng), 0, rng);
    }
  }
}

TEST_P(SimdDispatchTest, Gf4TrailingNibbleMatches) {
  if (GetParam() != FieldId::gf2_4) GTEST_SKIP();
  // Odd n leaves the final byte's high nibble as padding; the kernels
  // multiply it anyway (whole-byte tables), and scalar and SIMD must do so
  // identically — compare raw buffers, not just the n live symbols.
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0x0DD);
    for (const std::size_t n : {1u, 3u, 31u, 33u, 255u, 4097u}) {
      ASSERT_EQ(n % 2, 1u);
      diff_axpy(tier, n, random_scalar(rng), 0, 0, rng);
      diff_aliased(tier, n, random_scalar(rng), 0, rng);
    }
  }
}

TEST_P(SimdDispatchTest, RowBlockProductMatchesRepeatedAxpy) {
  // Symbol counts around the gfni512 block (64 symbols) and its 4 KiB
  // strip, including odd GF(2^4) tails.
  const std::size_t symbol_bytes = std::max(1u, scalar().bits / 8);
  const std::size_t strip = 4096 / symbol_bytes;
  for (const FieldView& tier : tiers()) {
    SCOPED_TRACE(tier.kernel);
    sim::SplitMix64 rng(0xB10C + static_cast<std::uint64_t>(GetParam()));
    for (const std::size_t inputs : {1u, 2u, 64u, 65u})
      for (const std::size_t n :
           {std::size_t{1}, std::size_t{3}, std::size_t{63}, std::size_t{64},
            std::size_t{65}, std::size_t{127}, std::size_t{128},
            std::size_t{129}, std::size_t{255}, std::size_t{256},
            std::size_t{257}, std::size_t{511}, strip, strip + 64 + 1}) {
        diff_row_block(tier, 3, inputs, n, 0, rng);
      }
    // A range that starts past the row's first block, as a decoder strip
    // does.
    for (const std::size_t inputs : {2u, 65u})
      diff_row_block(tier, 2, inputs, 2 * strip + 100, 64 * symbol_bytes, rng);
    // More scalars than a block prepares: the kernel prepares per output
    // row.
    diff_row_block(tier, RowBlock::kMaxPrepared / 64 + 1, 65, 300, 0, rng);
  }
}

TEST_P(SimdDispatchTest, RowBlockPreparesOnlyWithinBound) {
  for (const FieldView& f : tiers()) {
    SCOPED_TRACE(f.kernel);
    std::vector<std::byte> row(f.row_bytes(64));
    const RowBlock small(f, std::vector<const std::byte*>(64, row.data()), 64);
    const RowBlock large(
        f, std::vector<const std::byte*>(RowBlock::kMaxPrepared / 64 + 1,
                                         row.data()),
        64);
    EXPECT_EQ(small.matrices(0, 0) != nullptr, f.row_block_matrices);
    EXPECT_EQ(large.matrices(0, 0), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFields, SimdDispatchTest,
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

}  // namespace
}  // namespace fairshare::gf
