#include "coding/message.hpp"

#include <cstring>

#include "util/bytes.hpp"

namespace fairshare::coding {

std::vector<std::byte> EncodedMessage::serialize() const {
  std::vector<std::byte> wire(wire_size());
  util::store_le(wire.data(), file_id);
  util::store_le(wire.data() + 8, message_id);
  std::memcpy(wire.data() + 16, payload.data(), payload.size());
  return wire;
}

crypto::Md5Digest EncodedMessage::digest() const {
  crypto::Md5 h;
  std::byte header[16];
  util::store_le(header, file_id);
  util::store_le(header + 8, message_id);
  h.update(header);
  h.update(std::span<const std::byte>(payload));
  return h.finish();
}

std::vector<crypto::Md5Digest> digest_many(
    std::span<const EncodedMessageView> messages) {
  std::vector<std::array<std::byte, 16>> heads(messages.size());
  std::vector<crypto::Md5Input> inputs(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    util::store_le(heads[i].data(), messages[i].file_id);
    util::store_le(heads[i].data() + 8, messages[i].message_id);
    inputs[i] = {heads[i], messages[i].payload};
  }
  return crypto::md5_many(inputs);
}

}  // namespace fairshare::coding
