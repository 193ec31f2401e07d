// Internal: accelerated row-kernel variants behind runtime CPU dispatch.
//
// row_ops.cpp calls accelerated_row_kernels() once per field while building
// the kernel_tiers() table; this header is not installed and must not be
// included outside src/gf.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gf/field_id.hpp"
#include "gf/row_ops.hpp"

namespace fairshare::gf::detail {

using AxpyFn = void (*)(std::byte* dst, const std::byte* src, std::uint64_t c,
                        std::size_t n);
using ScaleFn = void (*)(std::byte* row, std::uint64_t c, std::size_t n);
using RowBlockFn = void (*)(const RowBlock& block, std::byte* const* dst,
                            const std::byte* const* src, std::size_t begin,
                            std::size_t end);

/// One tier's axpy/scale/row-block kernels plus the name reported through
/// FieldView::kernel.
struct RowKernels {
  AxpyFn axpy = nullptr;
  ScaleFn scale = nullptr;
  RowBlockFn row_block_product = nullptr;
  bool row_block_matrices = false;  ///< see FieldView::row_block_matrices
  const char* name = nullptr;
};

/// The reference row-block product: clear each output's range, then one
/// `Axpy` per scalar over it.  Every tier but gfni512 runs this over its
/// own axpy, so it is bit-identical to repeated axpy by construction.
template <unsigned Bits, AxpyFn Axpy>
void axpy_row_block(const RowBlock& block, std::byte* const* dst,
                    const std::byte* const* src, std::size_t begin,
                    std::size_t end) {
  const std::size_t n = (end - begin) * 8 / Bits;
  for (std::size_t i = 0; i < block.outputs(); ++i) {
    std::byte* d = dst[i] + begin;
    std::memset(d, 0, end - begin);
    for (std::size_t j = 0; j < block.inputs(); ++j)
      Axpy(d, src[j] + begin, block.scalar(i, j), n);
  }
}

template <unsigned Bits, AxpyFn Axpy, ScaleFn Scale>
constexpr RowKernels axpy_tier(const char* name) {
  return {Axpy, Scale, &axpy_row_block<Bits, Axpy>, false, name};
}

/// Every accelerated tier for `id` that the detected `feat` (and the host's
/// byte order) allows, slowest first: ssse3 then avx2 for GF(2^4)/GF(2^8);
/// window64 (little-endian hosts only), avx2, then gfni512 for
/// GF(2^16)/GF(2^32).  Every tier returned here is bit-identical to the
/// scalar kernels (tests/gf/simd_dispatch_test.cpp holds each to it).
std::vector<RowKernels> accelerated_row_kernels(FieldId id,
                                                const CpuFeatures& feat);

}  // namespace fairshare::gf::detail
