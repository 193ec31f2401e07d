// Thread pool: fire-and-forget tasks on a bounded, lazily grown worker set.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/thread_pool.hpp"

namespace fairshare {
namespace {

// Polls `done` for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return done();
}

TEST(ThreadPool, SubmitRunsEveryDetachedTask) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
  EXPECT_TRUE(eventually([&] { return ran.load() == 64; }));
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, AtMostWorkersTasksRunAtOnce) {
  // Blocking tasks (the discovery node's dials) must queue behind the cap
  // rather than each getting a thread.
  util::ThreadPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 6; ++i)
    pool.submit([&] {
      const int now = ++running;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      while (!release.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --running;
      ++finished;
    });
  EXPECT_TRUE(eventually([&] { return running.load() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(running.load(), 2);
  release = true;
  EXPECT_TRUE(eventually([&] { return finished.load() == 6; }));
  EXPECT_EQ(peak.load(), 2);
}

TEST(ThreadPool, JoinWaitsForRunningTasksAndLaterSubmitsNeverRun) {
  // The discovery node's stop(): a dial still running when the pool is
  // joined may submit a follow-up, which must be queued, not run.
  util::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  pool.submit([&] {
    started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++ran;
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  pool.join();
  EXPECT_EQ(ran.load(), 1);
  pool.submit([&] { ++ran; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), 1);
  pool.join();  // idempotent
}

}  // namespace
}  // namespace fairshare
