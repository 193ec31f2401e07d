#include "net/fault_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "p2p/wire.hpp"

namespace fairshare::net {

// ----------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), shared_(std::make_shared<Shared>()) {
  shared_->rng = sim::SplitMix64(plan.seed);
}

bool FaultInjector::admits_connection() {
  if (!plan_.refuse_connection) return true;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  ++shared_->stats.connections_refused;
  return false;
}

std::unique_ptr<Transport> FaultInjector::wrap(
    std::unique_ptr<Transport> inner) {
  return std::make_unique<FaultyTransport>(std::move(inner), plan_, shared_);
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->stats;
}

// --------------------------------------------------------- FaultyTransport

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultPlan plan)
    : FaultyTransport(std::move(inner), plan,
                      std::make_shared<FaultInjector::Shared>()) {
  shared_->rng = sim::SplitMix64(plan.seed);
}

FaultyTransport::FaultyTransport(
    std::unique_ptr<Transport> inner, FaultPlan plan,
    std::shared_ptr<FaultInjector::Shared> shared)
    : inner_(std::move(inner)), plan_(plan), shared_(std::move(shared)) {}

FaultyTransport::Faults FaultyTransport::draw_faults() {
  // Always four draws per frame: the schedule is a pure function of the
  // seed and the frame index, not of which rates happen to be non-zero.
  std::lock_guard<std::mutex> lock(shared_->mutex);
  Faults f;
  f.drop = shared_->rng.next_double() < plan_.drop_rate;
  f.corrupt = shared_->rng.next_double() < plan_.corrupt_rate;
  f.duplicate = shared_->rng.next_double() < plan_.duplicate_rate;
  f.delay = shared_->rng.next_double() < plan_.delay_rate;
  if (f.corrupt) f.corrupt_at = shared_->rng.next();
  shared_->stats.frames_dropped += f.drop;
  shared_->stats.frames_corrupted += f.corrupt;
  shared_->stats.frames_duplicated += f.duplicate;
  shared_->stats.frames_delayed += f.delay;
  return f;
}

void FaultyTransport::flip_payload_byte(std::vector<std::byte>& frame,
                                        std::uint64_t draw) {
  if (frame.empty()) return;
  // Aim past the coded-message prefix (frame type + file id + message id)
  // so the frame still parses and the MD5 digest check is the layer that
  // must catch the flip.  Short frames get any byte flipped.
  constexpr std::size_t kPrefix = p2p::wire::kCodedMessageIdBytes;
  static_assert(kPrefix == 17, "seeded corruption positions depend on it");
  const std::size_t lo = frame.size() > kPrefix ? kPrefix : 0;
  const std::size_t idx = lo + draw % (frame.size() - lo);
  frame[idx] ^= std::byte{0x01};
}

bool FaultyTransport::consume_frame_budget() {
  if (reset_) return false;
  if (frames_used_ >= plan_.reset_after_frames) {
    reset_ = true;
    {
      // Count before closing: the peer sees the reset as soon as the
      // socket closes, and whoever it tells must find it in stats().
      std::lock_guard<std::mutex> lock(shared_->mutex);
      ++shared_->stats.connections_reset;
    }
    inner_->close();  // the RST analog: both directions die at once
    return false;
  }
  ++frames_used_;
  return true;
}

TryWrite FaultyTransport::try_write_frame(std::span<const std::byte> frame) {
  if (reset_) return {IoStatus::closed, false};
  // A duplicate copy still owed to the inner transport must drain before a
  // new frame may be accepted (frames stay ordered on the wire).
  {
    const IoStatus st = try_flush();
    if (st == IoStatus::blocked && dup_out_frame_)
      return {IoStatus::blocked, false};
    if (st == IoStatus::closed || st == IoStatus::error) return {st, false};
  }
  if (!pending_write_faults_) {
    // First touch of this frame: spend the budget and draw its faults;
    // both survive any {blocked,false} retries, so the seeded schedule
    // does not depend on how often the caller had to retry.
    if (!consume_frame_budget()) return {IoStatus::closed, false};
    pending_write_faults_ = draw_faults();
    if (pending_write_faults_->delay)
      write_release_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(plan_.delay_ms);
  }
  if (write_release_) {
    if (std::chrono::steady_clock::now() < *write_release_)
      return {IoStatus::blocked, false};  // retry_after() names the instant
    write_release_.reset();
  }
  const Faults f = *pending_write_faults_;
  const TryWrite result = forward_write(frame, f);
  if (result.accepted) pending_write_faults_.reset();
  return result;
}

TryWrite FaultyTransport::try_write_frame_ext(std::span<const std::byte> head,
                                              std::span<const std::byte> ext) {
  // Rebuilt identically on every {blocked,false} retry, so the frame the
  // drawn faults eventually apply to is the one the caller keeps offering.
  ext_scratch_.clear();
  ext_scratch_.reserve(head.size() + ext.size());
  ext_scratch_.insert(ext_scratch_.end(), head.begin(), head.end());
  ext_scratch_.insert(ext_scratch_.end(), ext.begin(), ext.end());
  return try_write_frame(ext_scratch_);
}

TryWrite FaultyTransport::forward_write(std::span<const std::byte> frame,
                                        const Faults& faults) {
  if (faults.drop) return {IoStatus::ok, true};  // swallowed in transit
  std::vector<std::byte> mangled;
  std::span<const std::byte> payload = frame;
  if (faults.corrupt) {
    mangled.assign(frame.begin(), frame.end());
    flip_payload_byte(mangled, faults.corrupt_at);
    payload = mangled;
  }
  TryWrite r = inner_->try_write_frame(payload);
  if (!r.accepted) return r;
  if (faults.duplicate)
    dup_out_frame_.emplace(payload.begin(), payload.end());
  const IoStatus st = try_flush();  // opportunistically push the duplicate
  return {st, true};
}

IoStatus FaultyTransport::try_flush() {
  if (reset_) return IoStatus::closed;
  const IoStatus st = inner_->try_flush();
  if (st != IoStatus::ok) return st;
  if (dup_out_frame_) {
    const TryWrite r = inner_->try_write_frame(*dup_out_frame_);
    if (r.accepted) dup_out_frame_.reset();
    return r.status;
  }
  return IoStatus::ok;
}

TryRead FaultyTransport::try_read_frame(std::size_t max_len) {
  if (pending_duplicate_) {
    TryRead out{IoStatus::ok, std::move(*pending_duplicate_)};
    pending_duplicate_.reset();
    return out;
  }
  for (;;) {
    if (reset_) return {IoStatus::closed, {}};
    if (delayed_read_frame_) {
      if (std::chrono::steady_clock::now() < *read_release_)
        return {IoStatus::blocked, {}};  // time-gated; see retry_after()
      read_release_.reset();
      const Faults f = *delayed_read_faults_;
      delayed_read_faults_.reset();
      std::vector<std::byte> frame = std::move(*delayed_read_frame_);
      delayed_read_frame_.reset();
      if (f.drop) continue;  // delayed, then lost anyway
      if (f.corrupt) flip_payload_byte(frame, f.corrupt_at);
      if (f.duplicate) pending_duplicate_ = frame;
      return {IoStatus::ok, std::move(frame)};
    }
    TryRead r = inner_->try_read_frame(max_len);
    if (r.status != IoStatus::ok) return {r.status, {}};
    // The frame crossed the wire: now it counts against the reset budget.
    if (!consume_frame_budget()) return {IoStatus::closed, {}};
    const Faults f = draw_faults();
    if (f.delay) {
      read_release_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(plan_.delay_ms);
      delayed_read_frame_ = std::move(r.frame);
      delayed_read_faults_ = f;
      return {IoStatus::blocked, {}};
    }
    if (f.drop) continue;  // lost in transit; try the next one
    if (f.corrupt) flip_payload_byte(r.frame, f.corrupt_at);
    if (f.duplicate) pending_duplicate_ = r.frame;
    return {IoStatus::ok, std::move(r.frame)};
  }
}

bool FaultyTransport::want_write() const {
  return !reset_ && (dup_out_frame_.has_value() || inner_->want_write());
}

bool FaultyTransport::want_read() const {
  return pending_duplicate_.has_value() ||
         (!reset_ && inner_->want_read());
}

std::optional<std::chrono::steady_clock::time_point>
FaultyTransport::retry_after() const {
  if (write_release_ && read_release_)
    return std::min(*write_release_, *read_release_);
  if (write_release_) return write_release_;
  if (read_release_) return read_release_;
  return inner_->retry_after();
}

bool FaultyTransport::wait_ready(bool write, int timeout_ms) {
  if (reset_ || (!write && pending_duplicate_)) return true;
  return inner_->wait_ready(write, timeout_ms);
}

void FaultyTransport::close() { inner_->close(); }

bool FaultyTransport::valid() const { return !reset_ && inner_->valid(); }

FaultStats FaultyTransport::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->stats;
}

}  // namespace fairshare::net
