#include "linalg/progressive.hpp"

#include <cassert>
#include <cstring>

namespace fairshare::linalg {

ProgressiveSolver::ProgressiveSolver(gf::FieldId field, std::size_t k,
                                     std::size_t payload_symbols)
    : field_(field), k_(k), m_(payload_symbols) {
  const auto& f = gf::field_view(field);
  // The payload follows the coefficients with no gap, so one kernel call
  // covers a whole row: row_symbols_ symbols span exactly row_bytes_ bytes
  // (for GF(2^4) that counts an odd k's padding nibble, which the kernels
  // multiply like any other).
  payload_offset_ = f.row_bytes(k_);
  row_bytes_ = payload_offset_ + f.row_bytes(m_);
  row_symbols_ = row_bytes_ * 8 / f.bits;
  rows_.assign(k_ * row_bytes_, std::byte{0});
  used_.assign(k_, false);
  scratch_.assign(row_bytes_, std::byte{0});
}

bool ProgressiveSolver::add_row(const std::byte* coeffs,
                                const std::byte* payload) {
  const auto& f = gf::field_view(field_);
  std::memcpy(scratch_.data(), coeffs, payload_offset_);
  if (m_ > 0)  // an empty payload may be null, which memcpy must not get
    std::memcpy(scratch_.data() + payload_offset_, payload,
                row_bytes_ - payload_offset_);

  // Forward-reduce the incoming row against every stored pivot row.
  for (std::size_t col = 0; col < k_; ++col) {
    const std::uint64_t c = f.get(scratch_.data(), col);
    if (c == 0 || !used_[col]) continue;
    f.axpy(scratch_.data(), slot_row(col), c, row_symbols_);
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

  f.scale(scratch_.data(), f.inv(f.get(scratch_.data(), pivot)),
          row_symbols_);

  // Back-eliminate the new pivot column from all stored rows so the basis
  // stays in *reduced* echelon form (payloads become plain chunks at rank k).
  for (std::size_t col = 0; col < k_; ++col) {
    if (!used_[col]) continue;
    std::byte* r = slot_row(col);
    const std::uint64_t c = f.get(r, pivot);
    if (c != 0) f.axpy(r, scratch_.data(), c, row_symbols_);
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
