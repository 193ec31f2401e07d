// Batch decoder: the paper's literal decoding procedure.
//
// Section III-B: "a user requests a total of k messages ... and multiplies
// this by the inverse of the appropriate square sub-matrix of the
// coefficient matrix".  This decoder does exactly that — collect k
// messages, invert the k x k coefficient sub-matrix (O(k^3)), multiply it
// into the payload matrix (O(m k^2)) — in contrast to CodecDecoder's
// progressive elimination, which folds messages in as they arrive and
// stops at rank k without a separate inversion pass.
//
// Both produce identical bytes; bench/ablation_decoder_strategy compares
// their costs and their latency profiles (batch cannot start work until
// the k-th message lands; progressive has already absorbed k-1 of them).
// The k x k system exists only for the dense codec, so a BatchDecoder
// takes a dense FileInfo.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/coefficients.hpp"
#include "coding/codec.hpp"
#include "coding/message.hpp"
#include "obs/metrics.hpp"

namespace fairshare::coding {

class BatchDecoder {
 public:
  /// Precondition: info.codec == CodecKind::dense.
  BatchDecoder(const SecretKey& secret, const FileInfo& info,
               bool require_digests = true);

  /// Buffer a message (checked by the same authenticate() as
  /// CodecDecoder).  Returns the same AddResult vocabulary; `accepted` here
  /// means "buffered", since linear independence is only discovered at
  /// decode time.
  AddResult add(const EncodedMessage& message);

  std::size_t buffered() const { return messages_.size(); }
  bool ready() const { return messages_.size() >= info_.k; }

  /// Run the inversion + multiply.  Returns the file bytes, or nullopt if
  /// the buffered coefficient sub-matrix is singular (caller should fetch
  /// more messages and retry; over large q this is vanishingly rare).
  std::optional<std::vector<std::byte>> decode();

  /// Report into `registry`: a buffered-message gauge
  /// (fairshare_decoder_batch_buffered{user,file}), a decode()-time
  /// histogram (fairshare_decoder_batch_decode_ns{user,file}), and a
  /// "batch.decode" span per decode() call.  Off by default (no cost).
  void enable_metrics(obs::MetricsRegistry& registry, std::uint64_t user_id);

 private:
  FileInfo info_;
  bool require_digests_;
  CoefficientGenerator coeffs_;
  std::vector<EncodedMessage> messages_;
  obs::Gauge* buffered_gauge_ = nullptr;     // null = metrics disabled
  obs::Histogram* decode_ns_ = nullptr;
  obs::SpanRing* span_ring_ = nullptr;
};

}  // namespace fairshare::coding
