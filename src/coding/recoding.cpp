#include "coding/recoding.hpp"

#include <cassert>

#include "gf/row_ops.hpp"

namespace fairshare::coding {

RecodedMessage Recoder::recode(std::span<const EncodedMessage> stored,
                               sim::SplitMix64& rng) const {
  assert(!stored.empty());
  const auto& f = gf::field_view(params_.field);

  RecodedMessage out;
  out.file_id = stored.front().file_id;
  out.payload.assign(params_.message_bytes(), std::byte{0});
  out.combination.reserve(stored.size());
  for (const EncodedMessage& msg : stored) {
    assert(msg.file_id == out.file_id);
    assert(msg.payload.size() == params_.message_bytes());
    std::uint64_t alpha = 0;
    while (alpha == 0) alpha = rng.next() & (f.order - 1);
    out.combination.emplace_back(msg.message_id, alpha);
    f.axpy(out.payload.data(), msg.payload.data(), alpha, params_.m);
  }
  return out;
}

}  // namespace fairshare::coding
