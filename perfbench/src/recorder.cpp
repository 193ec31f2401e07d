#include "recorder.hpp"

#include <chrono>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

void SpanLog::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Never grow: a reallocation mid-run would stall the recording thread
  // inside the timed path.
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t op,
                       std::uint64_t parent)
    : log_(log) {
  if (!log_) return;
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.op = op;
  span_.name = name;
  span_.start_ns = now_ns();
}

void ScopedSpan::end() {
  if (!open_) return;
  open_ = false;
  if (!log_) return;
  span_.end_ns = now_ns();
  log_->record(span_);
}

}  // namespace perfbench
