// Minimal bounded worker pool for fire-and-forget blocking tasks.
//
// disco::DiscoveryNode runs its outbound dials here: each dial may block
// for up to its I/O timeout, and the pool caps how many run at once
// without spawning a thread per dial.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairshare::util {

/// Bounded worker pool.  Workers spawn lazily: construction costs no
/// threads, and threads come into existence only when outstanding work
/// exceeds the idle supply (up to the construction-time cap).
class ThreadPool {
 public:
  /// Up to `workers` (>= 1) threads.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a fire-and-forget task for the workers.  Tasks may block for
  /// a long time; at most workers() tasks run at once.  After join() a
  /// task is queued and never run.
  void submit(std::function<void()> task);

  /// Stop the workers: running tasks finish, queued ones are discarded
  /// unrun.  Idempotent; the destructor calls it.
  void join();

  /// Worker threads available to submit().
  std::size_t workers() const { return limit_; }

 private:
  void worker_loop();
  void spawn_up_to_locked(std::size_t want);

  std::size_t limit_;
  std::size_t idle_ = 0;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace fairshare::util
