#include "p2p/wire.hpp"

#include "util/bytes.hpp"

namespace fairshare::p2p::wire {

namespace {

using util::ByteReader;
using util::ByteWriter;

/// A writer whose frame starts with `type`'s tag.
ByteWriter frame_of(MessageType type) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Consume the tag byte; false unless it is `type`'s.
bool expect_type(ByteReader& r, MessageType type) {
  return r.get_u8() == static_cast<std::uint8_t>(type) && r.ok();
}

/// Whether an encoder could have written this geometry, and a client could
/// receive its messages.  Both encoders set
/// k = coding::chunks_for_bytes(original_bytes, params), with m >= 1 and m
/// even on GF(2^4) (two symbols to a byte).  Below 2^56 bytes and 2^56
/// symbols — far past any file or message an encoder can hold in memory —
/// its size_t arithmetic (8 * bytes + m * bits) cannot wrap.  A message
/// must also fit in a coded_message frame (kMaxCodedFrameBytes): a decoder
/// allocates k slots of message_bytes() when it is built.  k must stay
/// within kMaxChunks; the class state is checked once the trailer is read.
bool encoder_geometry(const coding::FileInfo& info) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 56;
  const std::uint64_t m = info.params.m;
  if (info.k == 0 || info.k > kMaxChunks || m == 0 || m >= kLimit ||
      info.original_bytes >= kLimit)
    return false;
  if (info.params.field == gf::FieldId::gf2_4 && m % 2 != 0) return false;
  if (info.params.message_bytes() >
      kMaxCodedFrameBytes - kCodedMessageHeaderBytes)
    return false;
  return info.k == coding::chunks_for_bytes(info.original_bytes, info.params);
}

/// The sum over classes of the squared class width, in closed form for
/// the classes chunked::ClassMap builds: a dense file, or a chunked one no
/// longer than a class, is one class of width k; any other is n - 1
/// classes of class_size and a last one of k - (n - 1) * stride.  Nothing
/// wraps: encoder_geometry has bounded k by kMaxChunks.
std::uint64_t class_state(const coding::FileInfo& info) {
  const std::uint64_t k = info.k;
  const std::uint64_t size = info.schedule.class_size;
  if (info.codec == coding::CodecKind::dense || k <= size) return k * k;
  const std::uint64_t stride = size - info.schedule.overlap;
  const std::uint64_t n = (k - size + stride - 1) / stride + 1;
  const std::uint64_t last = k - (n - 1) * stride;
  return (n - 1) * size * size + last * last;
}

}  // namespace

// ---------------------------------------------------------------- encode

std::vector<std::byte> encode(const crypto::AuthHello& msg) {
  ByteWriter w = frame_of(MessageType::auth_hello);
  w.put_u64(msg.user_id);
  w.put_bytes(msg.user_nonce);
  return w.take();
}

std::vector<std::byte> encode(const crypto::AuthChallenge& msg) {
  ByteWriter w = frame_of(MessageType::auth_challenge);
  w.put_u64(msg.peer_id);
  w.put_bytes(msg.peer_nonce);
  w.put_blob(msg.signature);
  return w.take();
}

std::vector<std::byte> encode(const crypto::AuthResponse& msg) {
  ByteWriter w = frame_of(MessageType::auth_response);
  w.put_blob(msg.signature);
  w.put_blob(msg.encrypted_session_key);
  return w.take();
}

std::vector<std::byte> encode(const FileRequest& msg) {
  ByteWriter w = frame_of(MessageType::file_request);
  w.put_u64(msg.user_id);
  w.put_u64(msg.file_id);
  w.put_f64(msg.max_rate_kbps);
  return w.take();
}

std::vector<std::byte> encode(const StopTransmission& msg) {
  ByteWriter w = frame_of(MessageType::stop_transmission);
  w.put_u64(msg.user_id);
  w.put_u64(msg.file_id);
  return w.take();
}

std::vector<std::byte> encode(const coding::EncodedMessage& msg) {
  const auto header = encode_coded_message_header(msg);
  ByteWriter w;
  w.put_bytes(header);
  w.put_bytes(msg.payload);
  return w.take();
}

std::array<std::byte, kCodedMessageHeaderBytes> encode_coded_message_header(
    const coding::EncodedMessage& msg) {
  std::array<std::byte, kCodedMessageHeaderBytes> out{};
  out[0] = std::byte{static_cast<std::uint8_t>(MessageType::coded_message)};
  util::store_le(out.data() + 1, msg.file_id);
  util::store_le(out.data() + 9, msg.message_id);
  util::store_le(out.data() + kCodedMessageIdBytes,
                 static_cast<std::uint32_t>(msg.payload.size()));
  return out;
}

std::vector<std::byte> encode(const coding::FileInfo& info) {
  ByteWriter w = frame_of(MessageType::file_info);
  w.put_u64(info.file_id);
  w.put_u64(info.original_bytes);
  w.put_u8(static_cast<std::uint8_t>(gf::field_bits(info.params.field)));
  w.put_u64(info.params.m);
  w.put_u64(info.k);
  w.put_bytes(info.content_digest);
  w.put_u32(static_cast<std::uint32_t>(info.message_digests.size()));
  for (const auto& [mid, digest] : info.message_digests) {
    w.put_u64(mid);
    w.put_bytes(digest);
  }
  // Versioned codec trailer: only emitted for non-dense codecs, so frames
  // from dense files are byte-identical to the pre-codec format and old
  // clients keep decoding them.  New clients treat a frame ending at the
  // digest table as dense (decode_file_info below).
  if (info.codec != coding::CodecKind::dense) {
    w.put_u8(static_cast<std::uint8_t>(info.codec));
    w.put_u32(info.schedule.class_size);
    w.put_u32(info.schedule.overlap);
    w.put_u64(info.schedule.seed);
  }
  return w.take();
}

// ---------------------------------------------------------------- decode

std::optional<MessageType> peek_type(std::span<const std::byte> frame) {
  if (frame.empty()) return std::nullopt;
  const auto tag = std::to_integer<std::uint8_t>(frame[0]);
  if (tag < 1 || tag > 8 || tag == 7) return std::nullopt;  // 7 is retired
  return static_cast<MessageType>(tag);
}

std::optional<crypto::AuthHello> decode_auth_hello(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::auth_hello)) return std::nullopt;
  crypto::AuthHello msg;
  msg.user_id = r.get_u64();
  if (!r.get_bytes(msg.user_nonce) || !r.at_end()) return std::nullopt;
  return msg;
}

std::optional<crypto::AuthChallenge> decode_auth_challenge(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::auth_challenge)) return std::nullopt;
  crypto::AuthChallenge msg;
  msg.peer_id = r.get_u64();
  if (!r.get_bytes(msg.peer_nonce)) return std::nullopt;
  if (!r.get_blob(msg.signature) || !r.at_end()) return std::nullopt;
  return msg;
}

std::optional<crypto::AuthResponse> decode_auth_response(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::auth_response)) return std::nullopt;
  crypto::AuthResponse msg;
  if (!r.get_blob(msg.signature)) return std::nullopt;
  if (!r.get_blob(msg.encrypted_session_key) || !r.at_end())
    return std::nullopt;
  return msg;
}

std::optional<FileRequest> decode_file_request(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::file_request)) return std::nullopt;
  FileRequest msg;
  msg.user_id = r.get_u64();
  msg.file_id = r.get_u64();
  msg.max_rate_kbps = r.get_f64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<StopTransmission> decode_stop_transmission(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::stop_transmission)) return std::nullopt;
  StopTransmission msg;
  msg.user_id = r.get_u64();
  msg.file_id = r.get_u64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<coding::EncodedMessageView> view_coded_message(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::coded_message)) return std::nullopt;
  coding::EncodedMessageView msg;
  msg.file_id = r.get_u64();
  msg.message_id = r.get_u64();
  msg.payload = r.view(r.get_u32());
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<coding::EncodedMessage> decode_coded_message(
    std::span<const std::byte> frame) {
  const auto view = view_coded_message(frame);
  if (!view) return std::nullopt;
  return coding::EncodedMessage{
      view->file_id, view->message_id,
      std::vector<std::byte>(view->payload.begin(), view->payload.end())};
}

std::optional<coding::FileInfo> decode_file_info(
    std::span<const std::byte> frame) {
  ByteReader r(frame);
  if (!expect_type(r, MessageType::file_info)) return std::nullopt;
  coding::FileInfo info;
  info.file_id = r.get_u64();
  info.original_bytes = r.get_u64();
  const std::uint8_t bits = r.get_u8();
  if (!gf::field_from_bits(bits, info.params.field)) return std::nullopt;
  info.params.m = r.get_u64();
  info.k = r.get_u64();
  if (!r.ok() || !encoder_geometry(info)) return std::nullopt;
  if (!r.get_bytes(info.content_digest)) return std::nullopt;
  const std::uint32_t digests =
      r.get_count<std::uint32_t>(8 + sizeof(crypto::Md5Digest));
  for (std::uint32_t i = 0; i < digests; ++i) {
    const std::uint64_t mid = r.get_u64();
    crypto::Md5Digest digest;
    if (!r.get_bytes(digest)) return std::nullopt;
    info.message_digests.emplace(mid, digest);
  }
  if (!r.ok()) return std::nullopt;
  if (!r.at_end()) {  // a pre-codec frame ends here: dense by default
    const std::uint8_t codec = r.get_u8();
    if (codec != static_cast<std::uint8_t>(coding::CodecKind::chunked))
      return std::nullopt;  // dense never writes a trailer; unknown = reject
    info.codec = coding::CodecKind::chunked;
    info.schedule.class_size = r.get_u32();
    info.schedule.overlap = r.get_u32();
    info.schedule.seed = r.get_u64();
    if (!r.ok() || !r.at_end() || !info.schedule.valid()) return std::nullopt;
  }
  if (class_state(info) > kMaxClassState) return std::nullopt;
  return info;
}

}  // namespace fairshare::p2p::wire
