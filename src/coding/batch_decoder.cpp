#include "coding/batch_decoder.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "linalg/matrix.hpp"

namespace fairshare::coding {

BatchDecoder::BatchDecoder(const SecretKey& secret, const FileInfo& info,
                           bool require_digests)
    : info_(info),
      require_digests_(require_digests),
      coeffs_(secret, info.file_id, info.params, info.k) {
  assert(info.codec == CodecKind::dense);
}

AddResult BatchDecoder::add(const EncodedMessage& message) {
  const EncodedMessageView view = message.view();
  const AddResult verdict =
      authenticate(info_, require_digests_, std::span(&view, 1)).front();
  if (verdict != AddResult::accepted) return verdict;
  const bool duplicate = std::any_of(
      messages_.begin(), messages_.end(), [&](const EncodedMessage& m) {
        return m.message_id == message.message_id;
      });
  if (duplicate) return AddResult::non_innovative;
  messages_.push_back(message);
  if (buffered_gauge_)
    buffered_gauge_->set(static_cast<double>(messages_.size()));
  return AddResult::accepted;
}

void BatchDecoder::enable_metrics(obs::MetricsRegistry& registry,
                                  std::uint64_t user_id) {
  const obs::LabelList labels = {{"file", std::to_string(info_.file_id)},
                                 {"user", std::to_string(user_id)}};
  buffered_gauge_ = &registry.gauge("fairshare_decoder_batch_buffered", labels);
  decode_ns_ = &registry.histogram("fairshare_decoder_batch_decode_ns", labels);
  span_ring_ = &registry.spans();
  buffered_gauge_->set(static_cast<double>(messages_.size()));
}

std::optional<std::vector<std::byte>> BatchDecoder::decode() {
  if (!ready()) return std::nullopt;
  obs::TraceSpan span(span_ring_, "batch.decode");
  const std::uint64_t t0 = decode_ns_ ? obs::monotonic_ns() : 0;

  const std::size_t k = info_.k;
  const std::size_t m = info_.params.m;
  const auto& f = gf::field_view(info_.params.field);

  // Assemble the k x k coefficient sub-matrix B and the k x m payload Y
  // from the first k buffered messages with independent rows.
  linalg::Matrix b(info_.params.field, k, k);
  linalg::Matrix y(info_.params.field, k, m);
  std::size_t row = 0;
  for (const EncodedMessage& msg : messages_) {
    if (row == k) break;
    const std::vector<std::byte> packed = coeffs_.row(msg.message_id);
    std::memcpy(b.row(row), packed.data(), f.row_bytes(k));
    std::memcpy(y.row(row), msg.payload.data(), f.row_bytes(m));
    ++row;
  }

  // X = B^{-1} Y (done as one Gaussian solve; mathematically the paper's
  // "multiply by the inverse").
  const auto x = linalg::solve(b, y);
  if (!x) {
    // Singular draw: drop the oldest message so the caller's next add()
    // brings a fresh row, then signal failure.
    if (!messages_.empty()) messages_.erase(messages_.begin());
    if (decode_ns_) decode_ns_->record(obs::monotonic_ns() - t0);
    return std::nullopt;
  }

  std::vector<std::byte> out(k * f.row_bytes(m));
  for (std::size_t i = 0; i < k; ++i)
    std::memcpy(out.data() + i * f.row_bytes(m), x->row(i), f.row_bytes(m));
  out.resize(info_.original_bytes);
  if (decode_ns_) decode_ns_->record(obs::monotonic_ns() - t0);
  return out;
}

}  // namespace fairshare::coding
