// One accepted connection on a net::EventLoop, as both serving loops use
// it: a PeerServer session and a DiscoveryNode inbound connection.  It
// owns the fd, the (optionally wrapped) Transport, the fd's registration
// and interest set on the loop, and the release timer of a fault-delayed
// transport.  Loop-thread-only.
//
// The owner runs its pump on every wakeup and ends each pump with
// rearm(output_pending), which applies the parking rule.  While the
// transport is time-gated (retry_after() names a release instant, as a
// FaultyTransport delay does) fd readiness means nothing, and the
// level-triggered loop would spin on it for the whole delay; so the fd
// leaves the loop and one release timer runs the pump again.  Otherwise
// the fd is registered for reading, plus writing while the transport or
// the owner has output pending.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace fairshare::net {

class LoopConnection {
 public:
  /// Wrap `socket` (through `wrapper` when set) and register it on `loop`
  /// for reading.  `on_ready`, the owner's pump, runs on every readiness
  /// event and when a release timer fires.
  LoopConnection(EventLoop& loop, Socket socket,
                 const TransportWrapper& wrapper,
                 std::function<void()> on_ready)
      : loop_(loop),
        fd_(socket.native_handle()),
        transport_(std::make_unique<Socket>(std::move(socket))),
        on_ready_(std::move(on_ready)) {
    if (wrapper) transport_ = wrapper(std::move(transport_));
    watch(EventLoop::kRead);
  }

  // Timer callbacks hold `this`.
  LoopConnection(const LoopConnection&) = delete;
  LoopConnection& operator=(const LoopConnection&) = delete;

  Transport& transport() { return *transport_; }
  /// False once close() ran.
  bool open() const { return on_ready_ != nullptr; }

  /// End of every pump: park on the release timer while the transport is
  /// time-gated, else read interest plus write when output is pending.
  void rearm(bool output_pending) {
    if (!open()) return;
    if (const auto release = transport_->retry_after()) {
      if (registered_) {
        loop_.remove_fd(fd_);
        registered_ = false;
      }
      if (release_timer_ == 0) arm_release(*release);
      return;
    }
    const std::uint32_t want =
        EventLoop::kRead |
        (output_pending || transport_->want_write() ? EventLoop::kWrite : 0);
    if (!registered_) {
      watch(want);
    } else if (want != interest_) {
      interest_ = want;
      loop_.modify_fd(fd_, want);
    }
  }

  /// Leave the loop (fd and release timer) and close the transport.
  /// Idempotent; the owner's pump may still run once from a wakeup that
  /// was already due, and must check open().
  void close() {
    if (!open()) return;
    if (release_timer_ != 0) {
      loop_.cancel_timer(release_timer_);
      release_timer_ = 0;
    }
    if (registered_) {
      loop_.remove_fd(fd_);
      registered_ = false;
    }
    transport_->close();
    on_ready_ = nullptr;  // drops the owner reference the pump captured
  }

 private:
  void watch(std::uint32_t interest) {
    registered_ = true;
    interest_ = interest;
    loop_.add_fd(fd_, interest, on_ready_);
  }

  void arm_release(std::chrono::steady_clock::time_point release) {
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            release - std::chrono::steady_clock::now())
            .count();
    // Half a millisecond of cushion: firing marginally early would find
    // the transport still gated and re-arm, wasting a timer trip.
    const std::uint64_t delay_ns =
        ns > 0 ? static_cast<std::uint64_t>(ns) + 500'000ull : 1;
    release_timer_ = loop_.add_timer_after(delay_ns, [this, cb = on_ready_] {
      release_timer_ = 0;
      cb();
    });
  }

  EventLoop& loop_;
  int fd_;
  std::unique_ptr<Transport> transport_;
  std::function<void()> on_ready_;
  bool registered_ = false;
  std::uint32_t interest_ = 0;
  EventLoop::TimerId release_timer_ = 0;
};

}  // namespace fairshare::net
