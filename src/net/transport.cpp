#include "net/transport.hpp"

#include <algorithm>
#include <cstring>

#include "util/bytes.hpp"

namespace fairshare::net {

bool Transport::write_frame(std::span<const std::byte> frame) {
  std::byte header[4];
  util::store_le(header, static_cast<std::uint32_t>(frame.size()));
  return write_all(header) && write_all(frame);
}

std::optional<std::vector<std::byte>> Transport::read_frame(
    std::size_t max_len) {
  std::byte header[4];
  if (!read_exact(header)) return std::nullopt;
  const auto len = util::load_le<std::uint32_t>(header);
  if (len > max_len) return std::nullopt;
  std::vector<std::byte> frame(len);
  if (!read_exact(frame)) {
    // A timeout between header and body cannot be retried (the header is
    // already consumed); surface it as a hard error.
    clear_timed_out();
    return std::nullopt;
  }
  return frame;
}

// ------------------------------------------------------ non-blocking path

IoStatus Transport::try_read_bytes(std::byte* out, std::size_t n,
                                   std::size_t& got) {
  // Emulation over the blocking primitives, for transports without real
  // non-blocking IO (test pipes): only start a read when at least one
  // byte is pending, then read the requested span whole.  Partial frames
  // may block briefly; frames are written whole, so in practice they
  // complete within one call.
  got = 0;
  if (!readable(0)) return IoStatus::blocked;
  if (!read_exact(std::span<std::byte>(out, n))) {
    if (timed_out()) return IoStatus::blocked;
    return valid() ? IoStatus::closed : IoStatus::error;
  }
  got = n;
  return IoStatus::ok;
}

IoStatus Transport::try_write_bytes(const std::byte* data, std::size_t n,
                                    std::size_t& put) {
  put = 0;
  if (!write_all(std::span<const std::byte>(data, n)))
    return valid() ? IoStatus::closed : IoStatus::error;
  put = n;
  return IoStatus::ok;
}

TryWrite Transport::try_write_frame(std::span<const std::byte> frame) {
  return try_write_frame_ext(frame, {});
}

TryWrite Transport::try_write_frame_ext(std::span<const std::byte> head,
                                        std::span<const std::byte> ext) {
  // Backpressure: a new frame is accepted only once the previous one has
  // fully drained, so staging stays bounded by one frame and the caller's
  // pacing budget counts each frame exactly once.
  if (want_write()) {
    const IoStatus flushed = try_flush();
    if (flushed == IoStatus::blocked) return {IoStatus::blocked, false};
    if (flushed != IoStatus::ok) return {flushed, false};
  }
  out_buf_.resize(4 + head.size());
  out_off_ = 0;
  util::store_le(out_buf_.data(),
                 static_cast<std::uint32_t>(head.size() + ext.size()));
  if (!head.empty())
    std::memcpy(out_buf_.data() + 4, head.data(), head.size());
  ext_ = ext;
  ext_off_ = 0;
  const IoStatus flushed = try_flush();
  if (flushed == IoStatus::blocked) return {IoStatus::blocked, true};
  return {flushed, flushed == IoStatus::ok};
}

IoStatus Transport::try_write_bytes_vec(const std::span<const std::byte>* bufs,
                                        std::size_t nbufs, std::size_t& put) {
  put = 0;
  for (std::size_t i = 0; i < nbufs; ++i) {
    std::size_t p = 0;
    const IoStatus st = try_write_bytes(bufs[i].data(), bufs[i].size(), p);
    put += p;
    if (st != IoStatus::ok || p < bufs[i].size()) return st;
  }
  return IoStatus::ok;
}

IoStatus Transport::try_flush() {
  while (out_off_ < out_buf_.size() || ext_off_ < ext_.size()) {
    std::span<const std::byte> bufs[2];
    std::size_t nbufs = 0;
    if (out_off_ < out_buf_.size())
      bufs[nbufs++] =
          std::span<const std::byte>(out_buf_).subspan(out_off_);
    if (ext_off_ < ext_.size()) bufs[nbufs++] = ext_.subspan(ext_off_);
    std::size_t put = 0;
    const IoStatus st = try_write_bytes_vec(bufs, nbufs, put);
    // Stream writes fill in order: progress lands on the staged head
    // first, the rest on the referenced extent.
    const std::size_t head_put =
        std::min(put, out_buf_.size() - out_off_);
    out_off_ += head_put;
    ext_off_ += put - head_put;
    if (st != IoStatus::ok) return st;
  }
  out_buf_.clear();
  out_off_ = 0;
  ext_ = {};
  ext_off_ = 0;
  return IoStatus::ok;
}

TryRead Transport::try_read_frame(std::size_t max_len) {
  // Header, then body; both may arrive in fragments across calls.
  while (in_hdr_got_ < 4) {
    std::size_t got = 0;
    const IoStatus st =
        try_read_bytes(in_hdr_ + in_hdr_got_, 4 - in_hdr_got_, got);
    in_hdr_got_ += got;
    if (st != IoStatus::ok) {
      if (st == IoStatus::blocked) return {IoStatus::blocked, {}};
      // EOF cleanly *between* frames is closed; mid-header it is an error.
      if (st == IoStatus::closed)
        return {in_hdr_got_ == 0 ? IoStatus::closed : IoStatus::error, {}};
      return {IoStatus::error, {}};
    }
  }
  if (in_body_.empty() && in_got_ == 0) {
    const auto len = util::load_le<std::uint32_t>(in_hdr_);
    if (len > max_len) return {IoStatus::error, {}};
    in_body_.resize(len);
  }
  while (in_got_ < in_body_.size()) {
    std::size_t got = 0;
    const IoStatus st = try_read_bytes(in_body_.data() + in_got_,
                                       in_body_.size() - in_got_, got);
    in_got_ += got;
    if (st != IoStatus::ok) {
      if (st == IoStatus::blocked) return {IoStatus::blocked, {}};
      return {st == IoStatus::closed ? IoStatus::error : st, {}};  // mid-frame
    }
  }
  TryRead out{IoStatus::ok, std::move(in_body_)};
  in_body_ = {};
  in_hdr_got_ = 0;
  in_got_ = 0;
  return out;
}

bool send_frame(Transport& transport, std::span<const std::byte> frame) {
  return transport.write_frame(frame);
}

std::optional<std::vector<std::byte>> recv_frame(Transport& transport,
                                                 std::size_t max_len) {
  return transport.read_frame(max_len);
}

}  // namespace fairshare::net
