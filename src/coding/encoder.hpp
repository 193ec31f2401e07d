// File encoder: produces the stream of coded messages a peer uploads
// during the initialization phase (Section III-A, Figure 2).
//
// The paper's dense code is the one-class case of the overlapping-class
// code (chunked.hpp): every coefficient row spans one class of width k, so
// message i is Y_i = sum_j beta_ij X_j over all k chunks and screening runs
// in batches of k.  The generated stream, its FileInfo (codec = dense, the
// default schedule) and so its wire frames are the paper's.
#pragma once

#include <cstdint>
#include <span>

#include "coding/chunked.hpp"

namespace fairshare::coding {

class FileEncoder : public chunked::Encoder {
 public:
  /// Prepares chunks for `data` (zero-padded to k*m symbols).  For
  /// GF(2^4), m must be even so chunks stay byte-aligned.
  FileEncoder(const SecretKey& secret, std::uint64_t file_id,
              std::span<const std::byte> data, const CodingParams& params)
      : chunked::Encoder(secret, file_id, data, params, CodecKind::dense,
                         ChunkedSchedule{}) {}
};

}  // namespace fairshare::coding
