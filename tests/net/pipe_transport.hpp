// In-memory Transport pair for single-threaded tests: bytes written by
// one end are immediately readable by the other.  Waiting answers at
// once, so a read past the buffered bytes reports a clean timeout (like a
// socket with a recv timeout and a quiet peer), or EOF after close —
// enough to drive every FaultyTransport path deterministically.
#pragma once

#include <algorithm>
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

  /// Writes never block; a read is ready only with bytes or EOF pending.
  bool wait_ready(bool, int) override {
    return state_->closed || !inbox().empty();
  }
  void close() override { state_->closed = true; }
  bool valid() const override { return !state_->closed; }

 protected:
  IoStatus try_read_bytes(std::byte* out, std::size_t n,
                          std::size_t& got) override {
    auto& in = inbox();
    got = std::min(n, in.size());
    std::copy_n(in.begin(), got, out);
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(got));
    if (got > 0) return IoStatus::ok;
    return state_->closed ? IoStatus::closed : IoStatus::blocked;
  }

  IoStatus try_write_bytes_vec(const std::span<const std::byte>* bufs,
                               std::size_t nbufs, std::size_t& put) override {
    put = 0;
    if (state_->closed) return IoStatus::closed;
    auto& out = is_a_ ? state_->to_b : state_->to_a;
    for (std::size_t i = 0; i < nbufs; ++i) {
      out.insert(out.end(), bufs[i].begin(), bufs[i].end());
      put += bufs[i].size();
    }
    return IoStatus::ok;
  }

 private:
  std::deque<std::byte>& inbox() { return is_a_ ? state_->to_a : state_->to_b; }

  std::shared_ptr<PipeState> state_;
  bool is_a_;
};

struct Pipe {
  std::shared_ptr<PipeState> state = std::make_shared<PipeState>();
  PipeEnd a{state, true};
  std::unique_ptr<Transport> b_owned() {
    return std::make_unique<PipeEnd>(state, false);
  }
};

}  // namespace fairshare::net
