// Ordered timer queue: arm, cancel, and batched expiry in deadline order.
//
// The reactor's event loop (net/event_loop.hpp) arms one handshake
// deadline per session, a few periodic ticks (the Eq. (2) pacing quantum,
// the stats-dump poll), and fault-injection release timers.  At that
// scale one ordered map keyed by (deadline, id) does everything in
// O(log n): the earliest deadline is its first entry, expiry pops a
// prefix, and an id-to-deadline index finds an entry to cancel.
//
// Single-threaded by design: the owning event loop is the only caller.
// Cross-thread arming goes through EventLoop::post.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fairshare::util {

/// Timer container over an abstract monotonic nanosecond clock (callers
/// pass `now`; the queue never reads a clock itself, so tests drive it
/// deterministically).
class TimerQueue {
 public:
  using Callback = std::function<void()>;
  using TimerId = std::uint64_t;  ///< 0 is never a valid id

  /// Arm a one-shot timer at absolute `deadline_ns`.  Returns its id.
  TimerId add(std::uint64_t deadline_ns, Callback cb);

  /// Disarm; false if the id already fired, was cancelled, or never was.
  bool cancel(TimerId id);

  /// Pop every entry with deadline <= now_ns into `out`, ordered by
  /// (deadline, arming order), and return how many expired.  Callbacks are
  /// NOT run here — the caller runs them after, so an expiring callback
  /// may freely add() or cancel() without re-entering the queue.
  std::size_t advance(std::uint64_t now_ns, std::vector<Callback>& out);

  /// Earliest pending deadline, or nullopt when empty.
  std::optional<std::uint64_t> next_deadline_ns() const;

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  // Ids grow with arming order, so (deadline, id) breaks ties that way.
  std::map<std::pair<std::uint64_t, TimerId>, Callback> queue_;
  std::unordered_map<TimerId, std::uint64_t> deadline_by_id_;
  TimerId next_id_ = 1;
};

}  // namespace fairshare::util
