// Overlapping-class RLNC: the one encoder, and the class geometry that the
// one decoder (codec.hpp) runs on.
//
// The paper's dense code (Section III-A) draws every coefficient row over
// all k chunks, so decoding costs O(k^2 * m) field operations, which caps
// practical file sizes around the point where k^2 swamps the SIMD kernels
// (a 1 GB file at the paper's m = 32768, q = 2^32 has k = 8192 and decodes
// densely in minutes, not seconds).  Following the overlapping-class
// construction of Silva, Zeng & Kschischang (arXiv:0905.2796) and expander
// chunked codes (arXiv:1307.5664), a chunked file draws every coded message
// over one small *class* of `class_size` consecutive chunks; adjacent
// classes share `overlap` chunks.  Each class is an independent system:
// decoding eliminates its coefficient rows and then applies the inverse to
// its payloads, O(class_size^2) scalars times m symbols, so total work is
// O(k * class_size * m): linear in file size for fixed class geometry.
// Completed classes donate their overlap chunks to incomplete neighbours
// as unit rows, a back-substitution cascade that rescues classes short on
// direct messages (codec.hpp).
//
// The dense code is this construction's one-class case: a dense FileInfo
// maps to a single class of width k (ClassMap), so one class screens,
// encodes and eliminates exactly as the paper describes, and FileEncoder
// (encoder.hpp) is this encoder under that geometry.
//
// Reception overhead stays low because the class *schedule* is quota
// weighted: within every period of k message ids, class c is visited
// q_c = w_c - overlap times (w_c = class width; the first class keeps its
// full width), which sums to exactly k.  In-order delivery therefore
// completes class 0 after its quota, whose donation tops up class 1, and
// so on down the chain — k messages decode the file with overhead limited
// to the rare dependent row (~1/q per class).  Shuffled or lossy delivery
// is rescued by the same cascade running in whatever order classes happen
// to finish.  The schedule is seeded and public (ChunkedSchedule travels
// in FileInfo), so peers and recoders agree on every message's class
// without holding the secret; coefficient *values* inside a class remain
// secret-derived exactly as in the dense codec (coefficients.hpp), which
// preserves the paper's secrecy argument unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coding/coefficients.hpp"
#include "coding/message.hpp"
#include "coding/recoding.hpp"
#include "linalg/progressive.hpp"

namespace fairshare::coding::chunked {

/// Pure geometry + schedule: which chunks belong to class c, and which
/// class a message id encodes over.  Deterministic from the FileInfo's
/// (k, codec, schedule), so encoder, decoder, recoders and peers all
/// derive the same map.
class ClassMap {
 public:
  /// A dense file is one class of width k.  A chunked file is one class
  /// when k <= schedule.class_size, else overlapping windows of
  /// schedule.class_size chunks.
  explicit ClassMap(const FileInfo& info);

  std::size_t k() const { return k_; }
  std::size_t classes() const { return widths_.size(); }
  const ChunkedSchedule& schedule() const { return schedule_; }

  /// First chunk of class c.
  std::size_t start(std::size_t c) const { return c * stride_; }
  /// Chunks in class c (class_size except possibly the last).
  std::size_t width(std::size_t c) const { return widths_[c]; }
  /// Widest class (solver/coefficient-row sizing).
  std::size_t max_width() const { return max_width_; }

  /// The class message id encodes over: position id % k in the seeded
  /// quota-interleaved period table.
  std::size_t class_of(std::uint64_t message_id) const {
    return table_[message_id % table_.size()];
  }

  /// Classes whose window contains chunk j, in increasing order.  Size is
  /// 1 away from overlap regions, >= 2 inside them.
  std::vector<std::size_t> classes_containing(std::size_t j) const;

  /// True when chunk j lies inside class c's window.
  bool contains(std::size_t c, std::size_t j) const {
    return j >= start(c) && j < start(c) + width(c);
  }

 private:
  std::size_t k_;
  ChunkedSchedule schedule_;
  std::size_t stride_;               // class_size - overlap
  std::vector<std::size_t> widths_;  // per-class chunk counts
  std::size_t max_width_;
  std::vector<std::uint32_t> table_;  // period-k id -> class schedule
};

/// Produces the stream of coded messages a peer uploads during the
/// initialization phase (Section III-A, Figure 2).  Message i is
/// Y_i = sum_j beta_ij X_j over the chunks of class_of(i), with beta rows
/// derived from the secret key (coefficients.hpp).  Following the paper,
/// rows are screened for linear independence per class in batches of the
/// class width — "the encoding peer can guarantee that exactly k messages
/// will suffice to decode a file by simply testing generated rows for
/// linear independence before encoding" — by *skipping* message ids whose
/// row is dependent within the current batch (ids must stay plain data
/// the decoder can reuse, so rows are never re-rolled).
class Encoder {
 public:
  /// Chunked-codec encoder: FileInfo::codec = chunked, schedule filled in.
  Encoder(const SecretKey& secret, std::uint64_t file_id,
          std::span<const std::byte> data, const CodingParams& params,
          const ChunkedSchedule& schedule);

  /// Metadata for decoding; message_digests covers every message generated
  /// so far (grow it by generating messages, then hand it to users).
  const FileInfo& info() const { return info_; }
  const ClassMap& class_map() const { return map_; }

  std::size_t k() const { return map_.k(); }
  const CodingParams& params() const { return info_.params; }

  /// Generate the next screened message.  Deterministic: the sequence of
  /// message ids depends only on (secret, file_id, params, data length,
  /// codec, schedule).
  EncodedMessage next_message();

  /// Generate the next `count` messages.  The paper uploads n*k messages
  /// total, k per peer.  Ids are screened one at a time on the calling
  /// thread, exactly as next_message() would, and every payload is
  /// allocated there; then each class's new payloads come from row-block
  /// products over the class's chunks (gf/row_ops.hpp), and the batch's
  /// digests from crypto::md5_many passes (equal to each message's
  /// digest()).  That payload work runs on one thread per 8 MiB of product,
  /// at most one per core; the output is the same for any thread count.
  /// next_message() is the one-message case.
  std::vector<EncodedMessage> generate(std::size_t count);

  /// Message ids examined so far (accepted + skipped); the skip rate is
  /// ~1/q per batch and is asserted tiny in tests.
  std::uint64_t ids_examined() const { return next_id_; }
  std::uint64_t messages_generated() const { return generated_; }

 protected:
  /// Lays `data` out as k chunks of m packed symbols (zero-padded; for
  /// GF(2^4) m must be even so chunks stay byte-aligned) under the class
  /// geometry of `codec` and `schedule`.
  Encoder(const SecretKey& secret, std::uint64_t file_id,
          std::span<const std::byte> data, const CodingParams& params,
          CodecKind codec, const ChunkedSchedule& schedule);

 private:
  FileInfo info_;
  ClassMap map_;
  std::size_t chunk_bytes_;
  std::vector<std::byte> chunks_;  // k rows of m packed symbols
  CoefficientGenerator coeffs_;    // sized to max class width, truncated
  // One per class: screens the current batch's coefficient rows.
  std::vector<linalg::ProgressiveSolver> batch_rank_;
  std::uint64_t next_id_ = 0;
  std::uint64_t generated_ = 0;
};

/// Peer-side class-local recoding: combine verbatim-stored messages *of
/// one class* into a fresh packet (the chunked analogue of
/// Recoder::recode).  `stored` must be non-empty and share one file id;
/// messages outside class `cls` are skipped, and at least one survivor is
/// required.  Keeping combinations class-local is what lets the decoder
/// expand them against a single class solver.
RecodedMessage recode_class_local(const ClassMap& map, std::size_t cls,
                                  std::span<const EncodedMessage> stored,
                                  const CodingParams& params,
                                  sim::SplitMix64& rng);

}  // namespace fairshare::coding::chunked
