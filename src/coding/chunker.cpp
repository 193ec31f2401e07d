#include "coding/chunker.hpp"

#include <cassert>

namespace fairshare::coding {

ChunkedEncoder::ChunkedEncoder(const SecretKey& secret,
                               std::uint64_t base_file_id,
                               std::span<const std::byte> data,
                               const CodingParams& params,
                               std::size_t unit_bytes)
    : base_file_id_(base_file_id),
      total_bytes_(data.size()),
      unit_bytes_(unit_bytes) {
  assert(unit_bytes > 0);
  const std::size_t n_units = (data.size() + unit_bytes - 1) / unit_bytes;
  encoders_.reserve(n_units);
  for (std::size_t i = 0; i < n_units; ++i) {
    const std::size_t off = i * unit_bytes;
    const std::size_t len = std::min(unit_bytes, data.size() - off);
    encoders_.push_back(std::make_unique<FileEncoder>(
        secret, base_file_id + i, data.subspan(off, len), params));
  }
}

ChunkedFileInfo ChunkedEncoder::info() const {
  ChunkedFileInfo out;
  out.base_file_id = base_file_id_;
  out.total_bytes = total_bytes_;
  out.unit_bytes = unit_bytes_;
  out.units.reserve(encoders_.size());
  for (const auto& enc : encoders_) out.units.push_back(enc->info());
  return out;
}

ChunkedDecoder::ChunkedDecoder(const SecretKey& secret,
                               const ChunkedFileInfo& info,
                               bool require_digests)
    : info_(info) {
  decoders_.reserve(info.units.size());
  decoded_.resize(info.units.size());
  for (const auto& unit : info.units)
    decoders_.push_back(
        std::make_unique<CodecDecoder>(secret, unit, require_digests));
}

AddResult ChunkedDecoder::add(const EncodedMessage& message) {
  // Route by the unit's actual file id: after an incremental update
  // (update.hpp) changed units carry fresh ids outside the original
  // contiguous range.
  for (std::size_t i = 0; i < info_.units.size(); ++i) {
    if (info_.units[i].file_id == message.file_id)
      return decoders_[i]->add(message);
  }
  return AddResult::wrong_file;
}

bool ChunkedDecoder::complete() const {
  return next_needed_unit() == decoders_.size();
}

std::size_t ChunkedDecoder::next_needed_unit() const {
  for (std::size_t i = 0; i < decoders_.size(); ++i)
    if (!decoders_[i]->complete()) return i;
  return decoders_.size();
}

std::vector<std::byte> ChunkedDecoder::unit_data(std::size_t i) {
  if (!decoded_[i]) decoded_[i] = decoders_[i]->reconstruct();
  return *decoded_[i];
}

std::vector<std::byte> ChunkedDecoder::reconstruct() {
  std::vector<std::byte> out;
  out.reserve(info_.total_bytes);
  for (std::size_t i = 0; i < decoders_.size(); ++i) {
    const std::vector<std::byte> unit = unit_data(i);
    out.insert(out.end(), unit.begin(), unit.end());
  }
  return out;
}

}  // namespace fairshare::coding
