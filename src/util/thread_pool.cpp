#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>

namespace fairshare::util {

ThreadPool::ThreadPool(std::size_t workers) : limit_(workers) {
  assert(workers >= 1 && "a pool needs at least one worker");
  // Nothing spawns here: workers appear on demand.
  workers_.reserve(limit_);
}

void ThreadPool::spawn_up_to_locked(std::size_t want) {
  if (stop_) return;
  want = std::min(want, limit_);
  while (workers_.size() < want)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { join(); }

void ThreadPool::join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  // stop_ is set, so no worker spawns after this point.
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      wake_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      --idle_;
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    // Every queued task should have an idle worker lined up; grow toward
    // the cap only when demand outruns the supply.
    if (idle_ < tasks_.size())
      spawn_up_to_locked(workers_.size() + (tasks_.size() - idle_));
  }
  wake_.notify_one();
}

}  // namespace fairshare::util
