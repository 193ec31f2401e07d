#include "linalg/progressive.hpp"

#include <cassert>
#include <cstring>

namespace fairshare::linalg {

// -------------------------------------------------------- IncrementalRank

IncrementalRank::IncrementalRank(gf::FieldId field, std::size_t cols)
    : field_(field),
      cols_(cols),
      row_bytes_(gf::field_view(field).row_bytes(cols)),
      scratch_(row_bytes_) {}

bool IncrementalRank::add_row(std::span<const std::uint64_t> coeffs) {
  assert(coeffs.size() == cols_);
  const auto& f = gf::field_view(field_);

  std::memset(scratch_.data(), 0, row_bytes_);
  for (std::size_t i = 0; i < cols_; ++i) f.set(scratch_.data(), i, coeffs[i]);

  // Reduce against the existing basis (rows are normalized, pivot = 1).
  for (std::size_t r = 0; r < pivots_.size(); ++r) {
    const std::uint64_t c = f.get(scratch_.data(), pivots_[r]);
    if (c != 0)
      f.axpy(scratch_.data(), rows_.data() + r * row_bytes_, c, cols_);
  }

  // Find the leftmost surviving nonzero.
  std::size_t pivot = cols_;
  for (std::size_t i = 0; i < cols_; ++i) {
    if (f.get(scratch_.data(), i) != 0) {
      pivot = i;
      break;
    }
  }
  if (pivot == cols_) return false;  // dependent

  f.scale(scratch_.data(), f.inv(f.get(scratch_.data(), pivot)), cols_);
  rows_.insert(rows_.end(), scratch_.begin(), scratch_.end());
  pivots_.push_back(pivot);
  return true;
}

// ------------------------------------------------------ ProgressiveSolver

ProgressiveSolver::ProgressiveSolver(gf::FieldId field, std::size_t k,
                                     std::size_t payload_symbols)
    : field_(field), k_(k), m_(payload_symbols) {
  const auto& f = gf::field_view(field);
  const std::size_t coeff_bytes = f.row_bytes(k_);
  // Payload starts at a 64-byte boundary: wide-symbol loads stay naturally
  // aligned and the SIMD kernels' main loops run whole cache lines (they
  // tolerate any offset, but aligned rows avoid split-line traffic in the
  // O(m k^2) hot path).
  payload_offset_ = (coeff_bytes + 63) / 64 * 64;
  row_bytes_ = payload_offset_ + f.row_bytes(m_);
  rows_.assign(k_ * row_bytes_, std::byte{0});
  used_.assign(k_, false);
  scratch_.assign(row_bytes_, std::byte{0});
}

bool ProgressiveSolver::add_row(const std::byte* coeffs,
                                const std::byte* payload) {
  const auto& f = gf::field_view(field_);
  const std::size_t coeff_bytes = f.row_bytes(k_);
  // The two copies cover the whole row but the alignment gap between them.
  std::memcpy(scratch_.data(), coeffs, coeff_bytes);
  std::memset(scratch_.data() + coeff_bytes, 0, payload_offset_ - coeff_bytes);
  std::memcpy(scratch_.data() + payload_offset_, payload, f.row_bytes(m_));

  // Forward-reduce the incoming row against every stored pivot row.
  for (std::size_t col = 0; col < k_; ++col) {
    const std::uint64_t c = f.get(scratch_.data(), col);
    if (c == 0 || !used_[col]) continue;
    const std::byte* base = slot_row(col);
    f.axpy(scratch_.data(), base, c, k_);
    f.axpy(scratch_.data() + payload_offset_, base + payload_offset_, c, m_);
  }

  // Locate this row's pivot.
  std::size_t pivot = k_;
  for (std::size_t col = 0; col < k_; ++col) {
    if (f.get(scratch_.data(), col) != 0) {
      pivot = col;
      break;
    }
  }
  if (pivot == k_) return false;  // non-innovative

  const std::uint64_t inv = f.inv(f.get(scratch_.data(), pivot));
  f.scale(scratch_.data(), inv, k_);
  f.scale(scratch_.data() + payload_offset_, inv, m_);

  // Back-eliminate the new pivot column from all stored rows so the basis
  // stays in *reduced* echelon form (payloads become plain chunks at rank k).
  for (std::size_t col = 0; col < k_; ++col) {
    if (!used_[col]) continue;
    std::byte* r = slot_row(col);
    const std::uint64_t c = f.get(r, pivot);
    if (c == 0) continue;
    f.axpy(r, scratch_.data(), c, k_);
    f.axpy(r + payload_offset_, scratch_.data() + payload_offset_, c, m_);
  }

  std::memcpy(slot_row(pivot), scratch_.data(), row_bytes_);
  used_[pivot] = true;
  ++filled_;
  return true;
}

const std::byte* ProgressiveSolver::chunk(std::size_t i) const {
  assert(complete());
  assert(i < k_);
  return slot_row(i) + payload_offset_;
}

}  // namespace fairshare::linalg
