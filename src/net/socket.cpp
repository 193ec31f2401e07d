#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace fairshare::net {

namespace {

bool fd_set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return next == flags || ::fcntl(fd, F_SETFL, next) == 0;
}

}  // namespace

// ------------------------------------------------------------------ Socket

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      timed_out_(other.timed_out_),
      recv_timeout_ms_(other.recv_timeout_ms_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    timed_out_ = other.timed_out_;
    recv_timeout_ms_ = other.recv_timeout_ms_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::set_nonblocking(bool on) { return fd_set_nonblocking(fd_, on); }

bool Socket::set_recv_timeout(int timeout_ms) {
  // Poll-based: recv() itself never carries the timeout, so the setting
  // works identically on blocking and O_NONBLOCK fds (SO_RCVTIMEO is
  // ignored by a non-blocking recv, which used to make the old API decay
  // to a busy spin the moment a reactor flipped the fd's mode).
  recv_timeout_ms_ = timeout_ms > 0 ? timeout_ms : 0;
  return fd_ >= 0;
}

bool Socket::set_send_timeout(int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  return ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
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

bool Socket::write_all(std::span<const std::byte> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Non-blocking fd used through the blocking API: wait for space
        // (bounded, so a peer that stopped reading cannot park us).
        pollfd pfd{fd_, POLLOUT, 0};
        if (::poll(&pfd, 1, 1000) > 0) continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::read_exact(std::span<std::byte> out) {
  timed_out_ = false;
  std::size_t got = 0;
  // A peer that stalls mid-read gets a bounded number of timeout windows
  // before the read is declared dead (frames are written whole, so partial
  // arrivals normally complete within one window).
  int stalls = 0;
  while (got < out.size()) {
    // The timeout lives in poll(), not in recv(): identical behaviour
    // whether or not the fd is O_NONBLOCK.
    if (recv_timeout_ms_ > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, recv_timeout_ms_);
      if (ready == 0) {
        if (got == 0) {
          timed_out_ = true;  // clean timeout, nothing consumed: retryable
          return false;
        }
        if (++stalls < 20) continue;
        return false;
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
    }
    const ssize_t n = ::recv(fd_, out.data() + got, out.size() - got,
                             recv_timeout_ms_ > 0 ? MSG_DONTWAIT : 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (recv_timeout_ms_ > 0) continue;  // poll above re-arms the wait
        // No timeout configured but the fd is non-blocking: block here.
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, -1) > 0 || errno == EINTR) continue;
      }
      return false;
    }
    stalls = 0;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::readable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN);
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

IoStatus Socket::try_write_bytes(const std::byte* data, std::size_t n,
                                 std::size_t& put) {
  put = 0;
  while (put < n) {
    const ssize_t r = ::send(fd_, data + put, n - put,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
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
  return fd_set_nonblocking(fd_, on);
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
