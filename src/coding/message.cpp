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

}  // namespace fairshare::coding
