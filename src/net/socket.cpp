#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace fairshare::net {

// ------------------------------------------------------------------ Socket

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : Transport(std::move(other)), fd_(other.fd_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    Transport::operator=(std::move(other));
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Socket> Socket::connect_to(const std::string& host,
                                         std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

bool Socket::wait_ready(bool write, int timeout_ms) {
  if (fd_ < 0) return true;  // the next try_* call reports the error
  pollfd pfd{fd_, static_cast<short>(write ? POLLOUT : POLLIN), 0};
  return ::poll(&pfd, 1, timeout_ms) != 0;  // EINTR: let the caller retry
}

IoStatus Socket::try_read_bytes(std::byte* out, std::size_t n,
                                std::size_t& got) {
  got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, out + got, n - got, MSG_DONTWAIT);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got > 0 ? IoStatus::ok : IoStatus::closed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return got > 0 ? IoStatus::ok : IoStatus::blocked;
    return IoStatus::error;
  }
  return IoStatus::ok;
}

IoStatus Socket::try_write_bytes_vec(const std::span<const std::byte>* bufs,
                                     std::size_t nbufs, std::size_t& put) {
  put = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < nbufs; ++i) total += bufs[i].size();
  while (put < total) {
    // Rebuild the iovec past what has already left; progress fills the
    // buffers strictly in order, as the base try_flush assumes.
    iovec iov[2];
    std::size_t niov = 0;
    std::size_t skip = put;
    for (std::size_t i = 0; i < nbufs && niov < 2; ++i) {
      if (skip >= bufs[i].size()) {
        skip -= bufs[i].size();
        continue;
      }
      iov[niov].iov_base =
          const_cast<std::byte*>(bufs[i].data() + skip);
      iov[niov].iov_len = bufs[i].size() - skip;
      ++niov;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t r = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r > 0) {
      put += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return put > 0 ? IoStatus::ok : IoStatus::blocked;
    return errno == EPIPE || errno == ECONNRESET ? IoStatus::closed
                                                 : IoStatus::error;
  }
  return IoStatus::ok;
}

// ---------------------------------------------------------------- Listener

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Listener::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return next == flags || ::fcntl(fd_, F_SETFL, next) == 0;
}

std::optional<Listener> Listener::bind_local(std::uint16_t port,
                                             bool reuse_port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  if (reuse_port)
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
#else
  if (reuse_port) {
    ::close(fd);
    return std::nullopt;
  }
#endif

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<Socket> Listener::accept() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

}  // namespace fairshare::net
