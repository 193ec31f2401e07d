#include "net/transport.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/bytes.hpp"

namespace fairshare::net {

IoStatus Transport::try_read_bytes(std::byte*, std::size_t,
                                   std::size_t& got) {
  got = 0;
  return IoStatus::error;
}

IoStatus Transport::try_write_bytes_vec(const std::span<const std::byte>*,
                                        std::size_t, std::size_t& put) {
  put = 0;
  return IoStatus::error;
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

// ------------------------------------------------------- blocking calls

namespace {

using Clock = std::chrono::steady_clock;

/// The end of a blocking call bounded by timeout_ms (0 = unbounded).
std::optional<Clock::time_point> deadline_after(int timeout_ms) {
  if (timeout_ms <= 0) return std::nullopt;
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Park until a blocked try_* call may make progress: sleep out a
/// time-gated fault, else wait for readiness.  False once `deadline` has
/// passed with nothing ready.
bool await_progress(Transport& transport, bool write,
                    std::optional<Clock::time_point> deadline) {
  const auto now = Clock::now();
  if (deadline && now >= *deadline) return false;
  if (const auto release = transport.retry_after(); release && *release > now) {
    std::this_thread::sleep_until(deadline ? std::min(*release, *deadline)
                                           : *release);
    return true;  // the caller retries; a spent deadline fails next round
  }
  int timeout_ms = -1;
  if (deadline) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        *deadline - now);
    timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 1));
  }
  return transport.wait_ready(write, timeout_ms);
}

}  // namespace

bool send_frame(Transport& transport, std::span<const std::byte> frame) {
  const auto deadline = deadline_after(transport.send_timeout_ms_);
  TryWrite w = transport.try_write_frame(frame);
  while (!w.accepted && w.status == IoStatus::blocked) {
    if (!await_progress(transport, /*write=*/true, deadline)) return false;
    w = transport.try_write_frame(frame);
  }
  if (!w.accepted) return false;
  IoStatus st = w.status;
  while (st == IoStatus::blocked) {
    if (!await_progress(transport, /*write=*/true, deadline)) return false;
    st = transport.try_flush();
  }
  return st == IoStatus::ok;
}

std::optional<std::vector<std::byte>> recv_frame(Transport& transport,
                                                 std::size_t max_len) {
  transport.timed_out_ = false;
  const auto deadline = deadline_after(transport.recv_timeout_ms_);
  for (;;) {
    TryRead r = transport.try_read_frame(max_len);
    if (r.status == IoStatus::ok) return std::move(r.frame);
    if (r.status != IoStatus::blocked) return std::nullopt;
    if (!await_progress(transport, /*write=*/false, deadline)) {
      transport.timed_out_ = true;
      return std::nullopt;
    }
  }
}

}  // namespace fairshare::net
