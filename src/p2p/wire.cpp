#include "p2p/wire.hpp"

#include <bit>
#include <cstring>

namespace fairshare::p2p::wire {

namespace {

// ----------------------------------------------------------------- Writer

class Writer {
 public:
  explicit Writer(MessageType type) { put_u8(static_cast<std::uint8_t>(type)); }

  void put_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
  }

  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  void put_bytes(std::span<const std::uint8_t> data) {
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    buf_.insert(buf_.end(), p, p + data.size());
  }

  void put_bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed (u32) byte string.
  void put_blob(std::span<const std::uint8_t> data) {
    put_u32(static_cast<std::uint32_t>(data.size()));
    put_bytes(data);
  }

  void put_blob(std::span<const std::byte> data) {
    put_u32(static_cast<std::uint32_t>(data.size()));
    put_bytes(data);
  }

  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// ----------------------------------------------------------------- Reader

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  bool expect_type(MessageType type) {
    return get_u8() == static_cast<std::uint8_t>(type) && ok_;
  }

  std::uint8_t get_u8() {
    if (!take(1)) return 0;
    return std::to_integer<std::uint8_t>(data_[pos_ - 1]);
  }

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               std::to_integer<std::uint8_t>(data_[pos_ - 4 + i]))
           << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               std::to_integer<std::uint8_t>(data_[pos_ - 8 + i]))
           << (8 * i);
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  bool get_bytes(std::span<std::uint8_t> out) {
    if (!take(out.size())) return false;
    std::memcpy(out.data(), data_.data() + pos_ - out.size(), out.size());
    return true;
  }

  /// Length-prefixed byte string; bounded so corrupt lengths fail cleanly.
  bool get_blob(std::vector<std::uint8_t>& out) {
    const std::uint32_t len = get_u32();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return false;
    }
    out.resize(len);
    return get_bytes(out);
  }

  bool get_blob_bytes(std::vector<std::byte>& out) {
    const std::uint32_t len = get_u32();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return false;
    }
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void put_digest(Writer& w, const crypto::Sha256Digest& d) {
  w.put_bytes(std::span<const std::uint8_t>(d));
}

bool get_digest(Reader& r, crypto::Sha256Digest& d) {
  return r.get_bytes(d);
}

/// Whether an encoder could have written this geometry.  Both encoders set
/// k = coding::chunks_for_bytes(original_bytes, params), with m >= 1 and m
/// even on GF(2^4) (two symbols to a byte).  Below 2^56 bytes and 2^56
/// symbols — far past any file or message an encoder can hold in memory —
/// its size_t arithmetic (8 * bytes + m * bits) cannot wrap.
bool encoder_geometry(const coding::FileInfo& info) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 56;
  const std::uint64_t m = info.params.m;
  if (info.k == 0 || m == 0 || m >= kLimit || info.original_bytes >= kLimit)
    return false;
  if (info.params.field == gf::FieldId::gf2_4 && m % 2 != 0) return false;
  return info.k == coding::chunks_for_bytes(info.original_bytes, info.params);
}

}  // namespace

// ---------------------------------------------------------------- encode

std::vector<std::byte> encode(const crypto::AuthHello& msg) {
  Writer w(MessageType::auth_hello);
  w.put_u64(msg.user_id);
  w.put_bytes(std::span<const std::uint8_t>(msg.user_nonce));
  return w.take();
}

std::vector<std::byte> encode(const crypto::AuthChallenge& msg) {
  Writer w(MessageType::auth_challenge);
  w.put_u64(msg.peer_id);
  w.put_bytes(std::span<const std::uint8_t>(msg.peer_nonce));
  w.put_blob(std::span<const std::uint8_t>(msg.signature));
  return w.take();
}

std::vector<std::byte> encode(const crypto::AuthResponse& msg) {
  Writer w(MessageType::auth_response);
  w.put_blob(std::span<const std::uint8_t>(msg.signature));
  w.put_blob(std::span<const std::uint8_t>(msg.encrypted_session_key));
  return w.take();
}

std::vector<std::byte> encode(const FileRequest& msg) {
  Writer w(MessageType::file_request);
  w.put_u64(msg.user_id);
  w.put_u64(msg.file_id);
  w.put_f64(msg.max_rate_kbps);
  return w.take();
}

std::vector<std::byte> encode(const StopTransmission& msg) {
  Writer w(MessageType::stop_transmission);
  w.put_u64(msg.user_id);
  w.put_u64(msg.file_id);
  return w.take();
}

std::vector<std::byte> encode(const coding::EncodedMessage& msg) {
  Writer w(MessageType::coded_message);
  w.put_u64(msg.file_id);
  w.put_u64(msg.message_id);
  w.put_blob(std::span<const std::byte>(msg.payload));
  return w.take();
}

std::array<std::byte, kCodedMessageHeaderBytes> encode_coded_message_header(
    const coding::EncodedMessage& msg) {
  std::array<std::byte, kCodedMessageHeaderBytes> out{};
  out[0] = std::byte{static_cast<std::uint8_t>(MessageType::coded_message)};
  const auto put = [&out](std::size_t at, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      out[at + static_cast<std::size_t>(i)] =
          std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
  };
  put(1, msg.file_id, 8);
  put(9, msg.message_id, 8);
  put(17, msg.payload.size(), 4);
  return out;
}

std::vector<std::byte> encode(const coding::AuthenticatedMessage& msg) {
  Writer w(MessageType::authenticated_message);
  w.put_u64(msg.message.file_id);
  w.put_u64(msg.message.message_id);
  w.put_blob(std::span<const std::byte>(msg.message.payload));
  w.put_u32(msg.leaf_index);
  w.put_u32(static_cast<std::uint32_t>(msg.proof.size()));
  for (const auto& d : msg.proof) put_digest(w, d);
  return w.take();
}

std::vector<std::byte> encode(const coding::FileInfo& info) {
  Writer w(MessageType::file_info);
  w.put_u64(info.file_id);
  w.put_u64(info.original_bytes);
  w.put_u8(static_cast<std::uint8_t>(gf::field_bits(info.params.field)));
  w.put_u64(info.params.m);
  w.put_u64(info.k);
  w.put_bytes(std::span<const std::uint8_t>(info.content_digest));
  w.put_u32(static_cast<std::uint32_t>(info.message_digests.size()));
  for (const auto& [mid, digest] : info.message_digests) {
    w.put_u64(mid);
    w.put_bytes(std::span<const std::uint8_t>(digest));
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
  if (tag < 1 || tag > 8) return std::nullopt;
  return static_cast<MessageType>(tag);
}

std::optional<crypto::AuthHello> decode_auth_hello(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::auth_hello)) return std::nullopt;
  crypto::AuthHello msg;
  msg.user_id = r.get_u64();
  if (!r.get_bytes(msg.user_nonce) || !r.at_end()) return std::nullopt;
  return msg;
}

std::optional<crypto::AuthChallenge> decode_auth_challenge(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::auth_challenge)) return std::nullopt;
  crypto::AuthChallenge msg;
  msg.peer_id = r.get_u64();
  if (!r.get_bytes(msg.peer_nonce)) return std::nullopt;
  if (!r.get_blob(msg.signature) || !r.at_end()) return std::nullopt;
  return msg;
}

std::optional<crypto::AuthResponse> decode_auth_response(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::auth_response)) return std::nullopt;
  crypto::AuthResponse msg;
  if (!r.get_blob(msg.signature)) return std::nullopt;
  if (!r.get_blob(msg.encrypted_session_key) || !r.at_end())
    return std::nullopt;
  return msg;
}

std::optional<FileRequest> decode_file_request(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::file_request)) return std::nullopt;
  FileRequest msg;
  msg.user_id = r.get_u64();
  msg.file_id = r.get_u64();
  msg.max_rate_kbps = r.get_f64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<StopTransmission> decode_stop_transmission(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::stop_transmission)) return std::nullopt;
  StopTransmission msg;
  msg.user_id = r.get_u64();
  msg.file_id = r.get_u64();
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<coding::EncodedMessage> decode_coded_message(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::coded_message)) return std::nullopt;
  coding::EncodedMessage msg;
  msg.file_id = r.get_u64();
  msg.message_id = r.get_u64();
  if (!r.get_blob_bytes(msg.payload) || !r.at_end()) return std::nullopt;
  return msg;
}

std::optional<coding::AuthenticatedMessage> decode_authenticated_message(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::authenticated_message)) return std::nullopt;
  coding::AuthenticatedMessage msg;
  msg.message.file_id = r.get_u64();
  msg.message.message_id = r.get_u64();
  if (!r.get_blob_bytes(msg.message.payload)) return std::nullopt;
  msg.leaf_index = r.get_u32();
  const std::uint32_t proof_len = r.get_u32();
  if (!r.ok() || static_cast<std::size_t>(proof_len) * 32 > r.remaining())
    return std::nullopt;
  msg.proof.resize(proof_len);
  for (auto& d : msg.proof)
    if (!get_digest(r, d)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;
  return msg;
}

std::optional<coding::FileInfo> decode_file_info(
    std::span<const std::byte> frame) {
  Reader r(frame);
  if (!r.expect_type(MessageType::file_info)) return std::nullopt;
  coding::FileInfo info;
  info.file_id = r.get_u64();
  info.original_bytes = r.get_u64();
  const std::uint8_t bits = r.get_u8();
  if (!gf::field_from_bits(bits, info.params.field)) return std::nullopt;
  info.params.m = r.get_u64();
  info.k = r.get_u64();
  if (!r.ok() || !encoder_geometry(info)) return std::nullopt;
  if (!r.get_bytes(info.content_digest)) return std::nullopt;
  const std::uint32_t digests = r.get_u32();
  // Each entry is 8 + 16 bytes; bound before reserving.
  if (!r.ok() || static_cast<std::size_t>(digests) * 24 > r.remaining())
    return std::nullopt;
  for (std::uint32_t i = 0; i < digests; ++i) {
    const std::uint64_t mid = r.get_u64();
    crypto::Md5Digest digest;
    if (!r.get_bytes(digest)) return std::nullopt;
    info.message_digests.emplace(mid, digest);
  }
  if (r.at_end()) return info;  // pre-codec frame: dense by default
  const std::uint8_t codec = r.get_u8();
  if (codec != static_cast<std::uint8_t>(coding::CodecKind::chunked))
    return std::nullopt;  // dense never writes a trailer; unknown = reject
  info.codec = coding::CodecKind::chunked;
  info.schedule.class_size = r.get_u32();
  info.schedule.overlap = r.get_u32();
  info.schedule.seed = r.get_u64();
  if (!r.ok() || !r.at_end() || !info.schedule.valid()) return std::nullopt;
  return info;
}

}  // namespace fairshare::p2p::wire
