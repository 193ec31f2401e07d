// Secret-keyed coefficient-row generation.
//
// Section III-A: each beta_ij is "randomly chosen from F_q using a
// cryptographically strong random number generator ... seeded with a
// cryptographic hash of i, and a secret key known only to the encoding
// peer".  Unlike Chou-Wu-Jain practical network coding, the betas are NOT
// shipped in message headers; they are a shared secret between encoder and
// (future) decoder, reconstructed on both sides from the plain-text
// message id.  This is the paper's first technical difference and the
// basis of its secrecy argument (Section III-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/message.hpp"
#include "gf/row_ops.hpp"

namespace fairshare::coding {

/// Deterministically expands (secret, file_id, message_id) into the packed
/// k-symbol coefficient row beta_i.  Identical on encoder and decoder.
class CoefficientGenerator {
 public:
  CoefficientGenerator(const SecretKey& secret, std::uint64_t file_id,
                       const CodingParams& params, std::size_t k);

  /// Packed coefficient row (k symbols) for one message id.
  std::vector<std::byte> row(std::uint64_t message_id) const {
    return row(message_id, k_);
  }
  /// The first `width` (<= k) symbols of that row, packed.  The keystream
  /// is drawn one symbol at a time, so a narrower row is a prefix of the
  /// full one: decoders ask for their class's width.
  std::vector<std::byte> row(std::uint64_t message_id,
                             std::size_t width) const;

  /// Same row as unpacked symbols, for tests.
  std::vector<std::uint64_t> row_symbols(std::uint64_t message_id) const;

  std::size_t k() const { return k_; }

 private:
  SecretKey secret_;
  std::uint64_t file_id_;
  gf::FieldId field_;
  std::size_t k_;
};

}  // namespace fairshare::coding
