#include "linalg/matrix.hpp"

#include <algorithm>
#include <cassert>

namespace fairshare::linalg {

Matrix::Matrix(gf::FieldId field, std::size_t rows, std::size_t cols)
    : field_(field),
      rows_(rows),
      cols_(cols),
      row_bytes_(gf::field_view(field).row_bytes(cols)),
      data_(rows * row_bytes_, std::byte{0}) {}

Matrix Matrix::identity(gf::FieldId field, std::size_t n) {
  Matrix m(field, n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i, 1);
  return m;
}

std::uint64_t Matrix::at(std::size_t r, std::size_t c) const {
  assert(r < rows_ && c < cols_);
  return gf::field_view(field_).get(row(r), c);
}

void Matrix::set(std::size_t r, std::size_t c, std::uint64_t v) {
  assert(r < rows_ && c < cols_);
  gf::field_view(field_).set(row(r), c, v);
}

Matrix Matrix::mul(const Matrix& other) const {
  assert(cols_ == other.rows_);
  assert(field_ == other.field_);
  const auto& f = gf::field_view(field_);
  Matrix out(field_, rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    // out.row(i) = sum_j this(i,j) * other.row(j): one axpy per nonzero.
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::uint64_t c = at(i, j);
      if (c != 0) f.axpy(out.row(i), other.row(j), c, other.cols_);
    }
  }
  return out;
}

void Matrix::swap_rows(std::size_t a, std::size_t b) {
  if (a == b) return;
  std::swap_ranges(row(a), row(a) + row_bytes_, row(b));
}

bool Matrix::operator==(const Matrix& other) const {
  return field_ == other.field_ && rows_ == other.rows_ &&
         cols_ == other.cols_ && data_ == other.data_;
}

namespace {

// Forward elimination to row-echelon form (in place).  Returns the rank.
// When `companion` is non-null, every row operation is mirrored on it
// (same row count); used to build inverses and solve systems.
std::size_t forward_eliminate(Matrix& m, Matrix* companion) {
  const auto& f = gf::field_view(m.field());
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Find a pivot.
    std::size_t p = pivot_row;
    while (p < m.rows() && m.at(p, col) == 0) ++p;
    if (p == m.rows()) continue;
    m.swap_rows(pivot_row, p);
    if (companion) companion->swap_rows(pivot_row, p);

    // Normalize the pivot to 1 with the aliased axpy: in characteristic 2,
    // row + (c + 1) * row = c * row, and c + 1 is c ^ 1.
    const std::uint64_t inv = f.inv(m.at(pivot_row, col));
    f.axpy(m.row(pivot_row), m.row(pivot_row), inv ^ 1, m.cols());
    if (companion)
      f.axpy(companion->row(pivot_row), companion->row(pivot_row), inv ^ 1,
             companion->cols());

    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r == pivot_row) continue;
      const std::uint64_t c = m.at(r, col);
      if (c == 0) continue;
      f.axpy(m.row(r), m.row(pivot_row), c, m.cols());
      if (companion)
        f.axpy(companion->row(r), companion->row(pivot_row), c,
               companion->cols());
    }
    ++pivot_row;
  }
  return pivot_row;
}

}  // namespace

std::size_t rank(Matrix m) { return forward_eliminate(m, nullptr); }

std::optional<Matrix> invert(const Matrix& m) {
  assert(m.rows() == m.cols());
  Matrix a = m;
  Matrix inv = Matrix::identity(m.field(), m.rows());
  if (forward_eliminate(a, &inv) != m.rows()) return std::nullopt;
  return inv;
}

std::optional<Matrix> solve(const Matrix& b, const Matrix& y) {
  assert(b.rows() == b.cols());
  assert(b.rows() == y.rows());
  Matrix a = b;
  Matrix x = y;
  if (forward_eliminate(a, &x) != b.rows()) return std::nullopt;
  return x;
}

}  // namespace fairshare::linalg
