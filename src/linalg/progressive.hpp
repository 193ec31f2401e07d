// Incremental (online) Gaussian elimination.
//
// Two users in the system need elimination one row at a time:
//  * the encoder screens freshly generated coefficient rows for linear
//    independence before accepting them (Section III-A: "the encoding peer
//    can guarantee that exactly k messages will suffice to decode a file by
//    simply testing generated rows for linear independence"), with an
//    empty payload;
//  * the decoder folds each message's coefficient row in as it arrives
//    from multiple peers and stops (sends the paper's "stop transmission")
//    the moment rank k is reached (Section III-B).  Its solver carries the
//    row's unit source weight as the payload, so at rank k the payload half
//    is the inverse that coding/codec.hpp then applies to the raw payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/row_ops.hpp"

namespace fairshare::linalg {

/// Online solver for B * X = Y fed one (coefficient row, payload row) pair
/// at a time.  Rows are kept in reduced row-echelon form over the
/// concatenated [coeffs | payload] buffer, so when rank reaches k the
/// payload parts *are* the recovered chunks — no separate back-substitution
/// pass.  The encoder's screening runs it with no payload, Table II's
/// coefficient-only column with a one-symbol payload, and the decoder with
/// a class-width weight payload.  Each add_row is O(k * (k + m)) field
/// operations.
class ProgressiveSolver {
 public:
  /// k: number of unknowns (chunks); payload_symbols: m, possibly 0.
  ProgressiveSolver(gf::FieldId field, std::size_t k,
                    std::size_t payload_symbols);

  /// Fold in one received row.  `coeffs` is the packed coefficient row
  /// (k symbols); `payload` the packed message payload (m symbols; unread,
  /// and may be null, when m is 0).  Returns true when the row was
  /// innovative (rank increased).
  bool add_row(const std::byte* coeffs, const std::byte* payload);

  std::size_t rank() const { return filled_; }
  bool complete() const { return filled_ == k_; }

  /// After complete(): packed payload of recovered chunk `i` (m symbols).
  /// The pointer is invalidated by further add_row calls.
  const std::byte* chunk(std::size_t i) const;

  std::size_t k() const { return k_; }
  std::size_t payload_symbols() const { return m_; }

 private:
  std::byte* slot_row(std::size_t pivot) {
    return rows_.data() + pivot * row_bytes_;
  }
  const std::byte* slot_row(std::size_t pivot) const {
    return rows_.data() + pivot * row_bytes_;
  }

  gf::FieldId field_;
  std::size_t k_;
  std::size_t m_;
  std::size_t row_bytes_;  // bytes of one packed [coeffs|payload] row
  std::size_t row_symbols_;     // symbols that span row_bytes_
  std::size_t payload_offset_;  // byte offset of payload within a row
  std::size_t filled_ = 0;
  std::vector<std::byte> rows_;     // k slots indexed by pivot column
  std::vector<bool> used_;          // slot occupancy
  std::vector<std::byte> scratch_;  // one packed row
};

}  // namespace fairshare::linalg
