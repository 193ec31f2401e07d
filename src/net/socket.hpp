// Minimal RAII TCP sockets with length-prefixed framing.
//
// The simulation layers (sim::Simulator, p2p::System) model bandwidth; this
// module makes the protocol *real*: peers listen on TCP ports, speak the
// wire formats of p2p/wire.hpp over loopback or a LAN, and the paper's
// Figure 4(b) timeline happens as actual bytes on actual sockets (see
// net/peer_server.hpp, net/download_client.hpp and the localhost_swarm
// example).
//
// Socket is the TCP implementation of the net::Transport seam
// (transport.hpp); the server and client speak to the interface so tests
// can substitute fault-injecting wrappers (fault_transport.hpp).
//
// Frames on the wire: u32 little-endian length, then that many bytes
// (a p2p::wire frame).  IPv4 only.  Two IO disciplines share one fd:
//  * blocking calls (read_exact/write_all) with poll()-backed recv
//    timeouts — timeouts keep working even when the fd is O_NONBLOCK, so
//    the legacy client path and tests are oblivious to the mode;
//  * the inherited non-blocking frame machine over MSG_DONTWAIT
//    primitives, which the epoll reactor (net/event_loop.hpp) drives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace fairshare::net {

/// RAII wrapper over a connected TCP socket.
class Socket final : public Transport {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() override;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking connect to host:port (IPv4 dotted quad or "localhost").
  static std::optional<Socket> connect_to(const std::string& host,
                                          std::uint16_t port);

  bool valid() const override { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The raw OS handle, for event-loop registration (epoll keys on it).
  int native_handle() const { return fd_; }
  void close() override;

  /// Toggle O_NONBLOCK.  The blocking read/write API keeps working either
  /// way (recv timeouts are poll()-based, sends fall back to poll on
  /// EAGAIN); the try_* family never blocks regardless (MSG_DONTWAIT).
  bool set_nonblocking(bool on);

  /// Bound every subsequent read (0 = block forever).  Implemented with
  /// poll() rather than SO_RCVTIMEO so it is honoured in both blocking
  /// and non-blocking mode.  Lets a reader wake up periodically to
  /// re-check shutdown flags instead of parking in recv() forever.
  bool set_recv_timeout(int timeout_ms) override;
  /// Bound every subsequent write with SO_SNDTIMEO (0 = block forever);
  /// write_all fails instead of hanging on a peer that stopped reading.
  bool set_send_timeout(int timeout_ms) override;

  /// Write all bytes; false on error/peer close.
  bool write_all(std::span<const std::byte> data) override;
  /// Read exactly n bytes; false on error/EOF.  When a recv timeout is set
  /// and it expires before the *first* byte arrives, returns false with
  /// timed_out() true — the caller may safely retry.  A timeout after a
  /// partial read is a stalled peer and reports as a plain error.
  bool read_exact(std::span<std::byte> out) override;
  /// True when the last read_exact failure was a clean (zero-byte) timeout.
  bool timed_out() const override { return timed_out_; }
  /// Downgrade a clean timeout to a fatal error (used by read_frame when a
  /// timeout strikes mid-frame and a retry would desynchronise the stream).
  void clear_timed_out() override { timed_out_ = false; }
  /// True when at least one byte is readable within timeout_ms.
  bool readable(int timeout_ms) override;

 protected:
  IoStatus try_read_bytes(std::byte* out, std::size_t n,
                          std::size_t& got) override;
  IoStatus try_write_bytes(const std::byte* data, std::size_t n,
                           std::size_t& put) override;
  /// Scatter-gather send (sendmsg + MSG_DONTWAIT): a frame head and its
  /// referenced payload leave in one syscall on the zero-copy serve path.
  IoStatus try_write_bytes_vec(const std::span<const std::byte>* bufs,
                               std::size_t nbufs, std::size_t& put) override;

 private:
  int fd_ = -1;
  bool timed_out_ = false;
  int recv_timeout_ms_ = 0;  ///< 0 = wait forever
};

/// RAII listening socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen on 127.0.0.1:port.  port 0 picks a free port (readable
  /// via port()).  `reuse_port` sets SO_REUSEPORT before bind so several
  /// listeners (one per event loop) can shard one port kernel-side;
  /// `backlog` sizes the accept queue (hundreds of sessions may dial in
  /// one burst against a reactor server).
  static std::optional<Listener> bind_local(std::uint16_t port,
                                            bool reuse_port = false,
                                            int backlog = 512);

  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  /// The raw OS handle, for event-loop registration.
  int native_handle() const { return fd_; }
  /// Toggle O_NONBLOCK (a reactor accepts until EAGAIN).
  bool set_nonblocking(bool on);

  /// Accept one connection; nullopt on error.  A blocking listener waits
  /// for a client; a non-blocking one returns nullopt once nothing is
  /// pending (EAGAIN), which is how a reactor drains it.
  std::optional<Socket> accept();

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace fairshare::net
