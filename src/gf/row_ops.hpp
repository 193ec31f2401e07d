// Bulk operations on rows of field symbols, plus a runtime-dispatched view
// of a field's scalar and row operations.
//
// A "row" is a contiguous buffer of n symbols in the field's packed wire
// representation:
//   GF(2^4)  : two symbols per byte, low nibble = even index
//   GF(2^8)  : one byte per symbol
//   GF(2^16) : two bytes per symbol, little endian
//   GF(2^32) : four bytes per symbol, little endian
//
// This packed form is exactly what the coded messages of Section III carry
// on the wire, so the decoder's Gaussian elimination runs directly on
// received payloads with no unpacking pass.
//
// Row operations are where virtually all decode time is spent (the paper's
// Table II cost O(m k^2) dominates the O(k^3) coefficient inversion), so
// each field's axpy runs on the fastest kernel tier the host supports,
// selected once at first use:
//   * GF(2^4)/GF(2^8): SSSE3/AVX2 split-nibble shuffle kernels (two
//     16-entry pshufb tables per scalar, 16/32 bytes per step) on x86,
//     falling back to premultiplied byte tables (one lookup+xor/byte);
//   * GF(2^16)/GF(2^32): best of, in order — GFNI/AVX-512 per-byte-plane
//     affine kernels ("gfni512"), AVX2 split-table pshufb kernels on
//     deinterleaved byte planes ("avx2"), per-scalar window tables consumed
//     64 bits per load on little-endian hosts ("window64"), and the
//     symbol-at-a-time scalar window path everywhere else.
// The row-block product, dst_i = sum_j c_ij * src_j over a byte range of
// every row, is the decoder's and encoder's payload kernel (Section III-B's
// "multiply by the inverse").  Its scalars are prepared once per block
// (RowBlock) and reused for every strip of the same rows.  The gfni512 tier
// transposes each source strip to byte planes once and keeps each output's
// planes in registers across all sources; every other tier is a loop over
// its own axpy, which is also the bit-identical reference.
// `kernel_tiers()` lists every tier the host can run, scalar first and the
// dispatched one last, so tests and benchmarks compare tiers in one
// process; `field_view()` is its last entry and what everything else uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/field_id.hpp"

namespace fairshare::gf {

class RowBlock;

/// Runtime-dispatched field interface.  Obtain with `field_view(id)` (or
/// one tier of `kernel_tiers(id)`); the returned reference has static
/// storage duration.
///
/// Scalar values are passed as uint64_t holding an element in the low
/// `bits` bits.  Row buffers are raw bytes in the packed representation
/// described in the header comment.
struct FieldView {
  FieldId id;
  unsigned bits;        ///< p: bits per symbol
  std::uint64_t order;  ///< q = 2^p

  std::uint64_t (*mul)(std::uint64_t a, std::uint64_t b);
  std::uint64_t (*inv)(std::uint64_t a);  ///< precondition: a != 0

  /// Bytes needed to store a row of n symbols.
  std::size_t (*row_bytes)(std::size_t n);
  /// Read symbol i of a packed row.
  std::uint64_t (*get)(const std::byte* row, std::size_t i);
  /// Write symbol i of a packed row.
  void (*set)(std::byte* row, std::size_t i, std::uint64_t v);

  /// dst ^= c * src over n symbols (the Gaussian-elimination kernel).
  /// dst and src must not overlap unless dst == src; in characteristic 2
  /// the aliased axpy(row, row, c ^ 1, n) scales the row by c.
  void (*axpy)(std::byte* dst, const std::byte* src, std::uint64_t c,
               std::size_t n);
  /// Row-block product over the byte range [begin, end) of every row:
  /// dst[i] = sum_j block.scalar(i, j) * src[j] for i < block.outputs(),
  /// j < block.inputs().  Both bounds are multiples of the symbol size (any
  /// byte for GF(2^4), whose padding nibble is multiplied like axpy's).
  /// The kernel sweeps the range in strips of a few KiB, so any length
  /// works.  No dst row may overlap a src row or another dst row.
  void (*row_block_product)(const RowBlock& block, std::byte* const* dst,
                            const std::byte* const* src, std::size_t begin,
                            std::size_t end);
  /// True when row_block_product consumes RowBlock's prepared bit
  /// matrices (the gfni512 tier), so blocks built for this view prepare
  /// them.
  bool row_block_matrices;

  /// Name of the row-kernel tier axpy/row_block_product run on:
  /// "scalar", "ssse3", "avx2", "window64", or "gfni512".  Diagnostic only
  /// — perf reports use it to attribute numbers to a code path.
  const char* kernel;
};

/// The scalars c_ij of one row-block product, prepared once for a
/// FieldView's kernel and then shared, read-only, by every thread and
/// every strip that runs the same rows.  Row i of the block is a packed
/// row of inputs() scalars that the caller owns and keeps alive and
/// unchanged for the block's lifetime.
///
/// Preparation is bounded: a block of at most kMaxPrepared scalars
/// prepares all of them (a 64-wide class is 4096 scalars, 512 KiB of
/// GF(2^32) bit matrices); a larger one keeps only its row pointers, and
/// the kernel prepares one output row at a time, so a dense class as wide
/// as k = 8192 never holds k^2 prepared scalars.
class RowBlock {
 public:
  static constexpr std::size_t kMaxPrepared = std::size_t{1} << 14;

  RowBlock(const FieldView& f, std::vector<const std::byte*> rows,
           std::size_t inputs);

  std::size_t outputs() const { return rows_.size(); }
  std::size_t inputs() const { return inputs_; }
  std::uint64_t scalar(std::size_t i, std::size_t j) const {
    return get_(rows_[i], j);
  }
  /// The bit matrices of scalar (i, j), (bits/8)^2 qwords in
  /// detail::GfniMatrices order, or nullptr when the block holds none.
  const std::uint64_t* matrices(std::size_t i, std::size_t j) const {
    return matrices_.empty()
               ? nullptr
               : matrices_.data() + (i * inputs_ + j) * words_;
  }

 private:
  std::uint64_t (*get_)(const std::byte* row, std::size_t i);
  std::vector<const std::byte*> rows_;
  std::size_t inputs_;
  std::size_t words_ = 0;  // qwords per prepared scalar
  std::vector<std::uint64_t> matrices_;
};

/// CPU features relevant to kernel dispatch, detected once at runtime.
/// All false on non-x86 builds.
struct CpuFeatures {
  bool ssse3 = false;
  bool avx2 = false;
  bool gfni = false;
  bool avx512f = false;
  bool avx512bw = false;
};

/// Detected features of the host CPU (cached after the first call).
CpuFeatures cpu_features();

/// Every FieldView this host can run for `id`, one per row-kernel tier in
/// ascending order: the portable scalar view first, the dispatched (fastest
/// supported) tier last.  The views differ only in their row kernels.
/// Built once, thread-safely, on first use; the span has static storage
/// duration.
std::span<const FieldView> kernel_tiers(FieldId id);

/// The shared FieldView for `id` with its row kernels dispatched to the
/// fastest supported tier: kernel_tiers(id).back().
const FieldView& field_view(FieldId id);

/// The portable scalar FieldView for `id`: kernel_tiers(id).front().
const FieldView& scalar_field_view(FieldId id);

}  // namespace fairshare::gf
