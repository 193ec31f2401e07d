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
// (a p2p::wire frame).  IPv4 only.  Every read and write is a
// MSG_DONTWAIT syscall, and waiting is poll() in wait_ready(), so the
// fd's O_NONBLOCK mode changes nothing: the epoll reactor
// (net/event_loop.hpp) drives the inherited frame machine directly, and
// the blocking send_frame / recv_frame loop over it.
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
  /// The raw OS handle, for event-loop registration (epoll keys on it).
  int native_handle() const { return fd_; }
  void close() override;

  /// poll() for POLLOUT (`write`) or POLLIN; true on any event (errors
  /// and hang-ups included), false when timeout_ms (-1 = forever) passed.
  bool wait_ready(bool write, int timeout_ms) override;

 protected:
  IoStatus try_read_bytes(std::byte* out, std::size_t n,
                          std::size_t& got) override;
  /// Scatter-gather send (sendmsg + MSG_DONTWAIT): a frame head and its
  /// referenced payload leave in one syscall on the zero-copy serve path.
  IoStatus try_write_bytes_vec(const std::span<const std::byte>* bufs,
                               std::size_t nbufs, std::size_t& put) override;

 private:
  int fd_ = -1;
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
