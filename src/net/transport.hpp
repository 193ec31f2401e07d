// The byte/frame transport seam under the real-socket protocol stack.
//
// net::Socket is one implementation (a connected TCP stream); tests and
// chaos harnesses substitute others — most importantly net::FaultyTransport
// (fault_transport.hpp), which wraps any Transport and injects seeded
// connection resets, frame drops/delays/duplication, and byte corruption.
// PeerServer and download_file speak only to this interface, so the entire
// Figure 4(b) exchange can be exercised under deterministic fault schedules
// without touching the protocol code.
//
// Frames: u32 little-endian length, then that many bytes (a p2p::wire
// frame).  There is one IO discipline, the non-blocking frame machine:
// try_read_frame / try_write_frame never block.  The base class carries
// the partial-frame state — an in-progress inbound header/body and an
// outbound staging buffer — over two overridable non-blocking byte
// primitives, so an implementation supplies bytes and readiness and gets
// framing for free, while wrappers can intercept at frame granularity:
//
//  * try_write_frame ACCEPTS a frame at most once (TryWrite::accepted):
//    once accepted it is staged and will be delivered by try_flush, so
//    callers count bytes exactly once; accepted==false means "retry the
//    same frame later" (outbound backlog, or a fault-injected delay whose
//    release time retry_after() exposes so reactors arm a timer instead
//    of sleeping).
//  * try_write_frame_ext is the zero-copy variant: the frame is
//    head ++ ext, where only the small head is copied into staging and
//    the (typically large, immutable) ext is *referenced* until drained.
//    The wire image is identical to try_write_frame(head++ext); both
//    drain through one vectored primitive (try_write_bytes_vec, sendmsg
//    on Socket) so a paced coded-message stream costs zero payload copies.
//  * want_write() says whether staged output remains; the reactor maps it
//    onto EPOLLOUT interest.  want_read() says a frame is mid-reassembly.
//
// The blocking calls are the free functions send_frame / recv_frame: wait
// loops over the same machine that park on retry_after() or wait_ready()
// whenever a try_* call is blocked.  The epoll reactor (event_loop.hpp)
// drives the machine directly; the download client and the discovery
// dialers block through the two functions.  A recv timeout bounds one
// recv_frame call and is always retryable, because a partly received
// frame stays in the reassembly state; a send timeout is a hard error.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace fairshare::net {

/// How a non-blocking operation ended.
enum class IoStatus {
  ok,       ///< completed fully
  blocked,  ///< made what progress it could; wait for readiness or
            ///< retry_after(), then call again
  closed,   ///< orderly EOF — the peer is gone
  error,    ///< hard failure; the connection is unusable
};

/// Result of try_write_frame.  `accepted` is the ownership handoff: a
/// frame is accepted at most once, after which the transport delivers it
/// (possibly across several try_flush calls) without the caller resending.
struct TryWrite {
  IoStatus status = IoStatus::error;
  bool accepted = false;
};

/// Result of try_read_frame.  `frame` is meaningful only when status==ok.
struct TryRead {
  IoStatus status = IoStatus::error;
  std::vector<std::byte> frame;
};

/// Abstract bidirectional, connection-oriented transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Stage one frame for delivery without blocking (see the accepted
  /// contract in the header comment).  Default: appends header+frame to
  /// the staging buffer once the previous frame has fully drained, then
  /// flushes opportunistically.
  virtual TryWrite try_write_frame(std::span<const std::byte> frame);

  /// Stage one frame whose payload is head ++ ext, copying only `head`
  /// (plus the length prefix) into the staging buffer; `ext` is held as a
  /// reference and written straight from the caller's memory.  Same
  /// accepted-at-most-once contract and wire image as
  /// try_write_frame(head ++ ext).  LIFETIME: once accepted, the bytes
  /// behind `ext` must stay valid and unchanged until want_write() turns
  /// false (or the transport is closed) — the serving path points it at
  /// the immutable MessageStore, which outlives every session.
  virtual TryWrite try_write_frame_ext(std::span<const std::byte> head,
                                       std::span<const std::byte> ext);

  /// Drain staged output.  ok = nothing left, blocked = bytes remain
  /// (wait for writability), closed/error = connection dead.
  virtual IoStatus try_flush();

  /// Reassemble one frame without blocking.  blocked until a full frame
  /// (header + body) has arrived; oversized frames report error.
  virtual TryRead try_read_frame(std::size_t max_len);

  /// Staged outbound bytes remain (map onto EPOLLOUT interest).
  virtual bool want_write() const {
    return out_off_ < out_buf_.size() || ext_off_ < ext_.size();
  }
  /// An inbound frame is mid-reassembly (header or body partially read).
  virtual bool want_read() const { return in_hdr_got_ > 0 || in_got_ > 0; }

  /// When a blocked try_* call is waiting on *time* rather than on fd
  /// readiness (fault-injected delays), the steady-clock instant at which
  /// retrying can make progress; reactors arm a timer for it and
  /// send_frame / recv_frame sleep until it.  nullopt = readiness-driven.
  virtual std::optional<std::chrono::steady_clock::time_point> retry_after()
      const {
    return std::nullopt;
  }

  /// Wait up to timeout_ms (-1 = forever) for the transport to become
  /// writable (`write`) or readable; false when the time ran out first.
  /// A dead connection reports ready, so the next try_* call surfaces it.
  virtual bool wait_ready(bool write, int timeout_ms) = 0;

  virtual void close() = 0;
  virtual bool valid() const = 0;

  // ------------------------------------------ settings of the blocking calls

  /// Bound each recv_frame call (0 = wait forever).
  void set_recv_timeout(int timeout_ms) { recv_timeout_ms_ = timeout_ms; }
  /// Bound each send_frame call (0 = wait forever).
  void set_send_timeout(int timeout_ms) { send_timeout_ms_ = timeout_ms; }
  /// True when the last recv_frame call ended on its timeout; retrying it
  /// resumes whatever part of a frame had already arrived.
  bool timed_out() const { return timed_out_; }

 protected:
  Transport() = default;
  Transport(Transport&&) noexcept = default;
  Transport& operator=(Transport&&) noexcept = default;

  /// Non-blocking byte primitives under the default frame machines.
  /// `got`/`put` report partial progress; status blocked means zero-or-
  /// partial progress with the rest pending.  The defaults fail: a
  /// wrapper that overrides every frame call never reaches them.
  virtual IoStatus try_read_bytes(std::byte* out, std::size_t n,
                                  std::size_t& got);
  /// Vectored non-blocking write: push the buffers in order, reporting
  /// total progress in `put` (progress fills bufs[0] before bufs[1], as a
  /// stream write must).  Socket implements it with one sendmsg so a
  /// frame head and its referenced payload leave in a single syscall.
  virtual IoStatus try_write_bytes_vec(const std::span<const std::byte>* bufs,
                                       std::size_t nbufs, std::size_t& put);

 private:
  friend bool send_frame(Transport&, std::span<const std::byte>);
  friend std::optional<std::vector<std::byte>> recv_frame(Transport&,
                                                          std::size_t);

  // Outbound staging: [out_off_, out_buf_.size()) awaits the wire, then
  // the referenced extent [ext_off_, ext_.size()) of the current frame.
  std::vector<std::byte> out_buf_;
  std::size_t out_off_ = 0;
  std::span<const std::byte> ext_;
  std::size_t ext_off_ = 0;
  // Inbound reassembly: header first, then body.
  std::byte in_hdr_[4] = {};
  std::size_t in_hdr_got_ = 0;
  std::vector<std::byte> in_body_;
  std::size_t in_got_ = 0;
  // The blocking calls' bounds (ms, 0 = none) and last recv outcome.
  int recv_timeout_ms_ = 0;
  int send_timeout_ms_ = 0;
  bool timed_out_ = false;
};

/// Accept-path hook of the serving loops (PeerServer and DiscoveryNode):
/// every accepted connection's Transport passes through it before it is
/// served, so chaos tests inject server-side faults (a FaultInjector::wrap
/// closure) without the service knowing.  Null = serve the raw socket.
/// Must be thread-safe: every event loop accepts, and calls it,
/// concurrently.
using TransportWrapper =
    std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>;

/// Send one length-prefixed frame, waiting until it has fully left
/// through the transport; false on error, peer close, or send timeout.
bool send_frame(Transport& transport, std::span<const std::byte> frame);

/// Receive one frame; nullopt on EOF, error, an oversized (> max_len)
/// frame, or the recv timeout (then timed_out() is true and a retry
/// continues the same frame).
std::optional<std::vector<std::byte>> recv_frame(Transport& transport,
                                                 std::size_t max_len);

}  // namespace fairshare::net
