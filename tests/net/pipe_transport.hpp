// In-memory Transport pair for single-threaded tests: bytes written by
// one end are immediately readable by the other.  Reading past the
// buffered bytes reports a clean timeout (like a socket with a recv
// timeout and a quiet peer), or EOF after close — enough to drive every
// FaultyTransport path deterministically.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <utility>

#include "net/transport.hpp"

namespace fairshare::net {

struct PipeState {
  std::deque<std::byte> to_a, to_b;
  bool closed = false;
};

class PipeEnd final : public Transport {
 public:
  PipeEnd(std::shared_ptr<PipeState> state, bool is_a)
      : state_(std::move(state)), is_a_(is_a) {}

  bool write_all(std::span<const std::byte> data) override {
    if (state_->closed) return false;
    auto& out = is_a_ ? state_->to_b : state_->to_a;
    out.insert(out.end(), data.begin(), data.end());
    return true;
  }

  bool read_exact(std::span<std::byte> out) override {
    timed_out_ = false;
    auto& in = is_a_ ? state_->to_a : state_->to_b;
    if (in.size() < out.size()) {
      // Nothing buffered and the pipe lives: a clean timeout.  Anything
      // else (EOF, partial frame) is a hard error, like Socket.
      timed_out_ = !state_->closed && in.empty();
      return false;
    }
    for (auto& b : out) {
      b = in.front();
      in.pop_front();
    }
    return true;
  }

  bool set_recv_timeout(int) override { return true; }
  bool set_send_timeout(int) override { return true; }
  bool timed_out() const override { return timed_out_; }
  void clear_timed_out() override { timed_out_ = false; }
  bool readable(int) override {
    return !(is_a_ ? state_->to_a : state_->to_b).empty();
  }
  void close() override { state_->closed = true; }
  bool valid() const override { return !state_->closed; }

 private:
  std::shared_ptr<PipeState> state_;
  bool is_a_;
  bool timed_out_ = false;
};

struct Pipe {
  std::shared_ptr<PipeState> state = std::make_shared<PipeState>();
  PipeEnd a{state, true};
  std::unique_ptr<Transport> b_owned() {
    return std::make_unique<PipeEnd>(state, false);
  }
};

}  // namespace fairshare::net
