// The reactor's moving parts in isolation: util::TimerQueue expiry
// semantics driven by a hand-held clock, and net::EventLoop's epoll +
// eventfd + timer composition — cross-thread wakeups, deadline ordering,
// periodic rearming, and fd registrations that outlive their fds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "util/timer_queue.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

namespace fairshare {
namespace {

using util::TimerQueue;

constexpr std::uint64_t kMs = 1'000'000;  // ns per ms

std::vector<TimerQueue::Callback> pop(TimerQueue& queue, std::uint64_t now) {
  std::vector<TimerQueue::Callback> due;
  queue.advance(now, due);
  return due;
}

TEST(TimerQueueTest, ExpiresInDeadlineOrder) {
  TimerQueue queue;
  std::vector<int> fired;
  // Armed out of order; two share a deadline to pin the arming-order
  // tiebreak.
  queue.add(5 * kMs, [&] { fired.push_back(5); });
  queue.add(1 * kMs, [&] { fired.push_back(1); });
  queue.add(3 * kMs, [&] { fired.push_back(3); });
  queue.add(3 * kMs, [&] { fired.push_back(4); });
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.next_deadline_ns(), 1 * kMs);

  auto due = pop(queue, 10 * kMs);
  for (auto& cb : due) cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4, 5}));
  EXPECT_TRUE(queue.empty());
}

TEST(TimerQueueTest, AdvanceStopsAtNotYetDueEntries) {
  TimerQueue queue;
  int fired = 0;
  queue.add(2 * kMs, [&] { ++fired; });
  queue.add(8 * kMs, [&] { ++fired; });

  auto due = pop(queue, 5 * kMs);
  EXPECT_EQ(due.size(), 1u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.next_deadline_ns(), 8 * kMs);

  due = pop(queue, 8 * kMs);  // boundary: deadline <= now expires
  EXPECT_EQ(due.size(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(TimerQueueTest, CancelDisarmsExactlyOnce) {
  TimerQueue queue;
  bool fired = false;
  const TimerQueue::TimerId id = queue.add(2 * kMs, [&] { fired = true; });
  queue.add(2 * kMs, [] {});  // neighbour at the same deadline survives

  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));          // double-cancel
  EXPECT_FALSE(queue.cancel(TimerQueue::TimerId{0}));  // never valid
  EXPECT_FALSE(queue.cancel(9999));        // never armed

  auto due = pop(queue, 10 * kMs);
  EXPECT_EQ(due.size(), 1u);
  EXPECT_FALSE(fired);
}

TEST(TimerQueueTest, FarDeadlineWaitsItsTurn) {
  // An advance that stops 1 ms short of a far deadline must leave the
  // entry armed instead of firing it early.
  TimerQueue queue;
  bool fired = false;
  queue.add(300 * kMs, [&] { fired = true; });

  auto due = pop(queue, 299 * kMs);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(queue.size(), 1u);

  due = pop(queue, 301 * kMs);
  ASSERT_EQ(due.size(), 1u);
  due[0]();
  EXPECT_TRUE(fired);
}

TEST(TimerQueueTest, ArmingInThePastFiresOnNextAdvance) {
  // The reactor arms retry timers from retry_after() deadlines that may
  // already have elapsed; those must surface on the very next advance.
  TimerQueue queue;
  (void)pop(queue, 500 * kMs);  // cursor well past the deadline below
  bool fired = false;
  queue.add(100 * kMs, [&] { fired = true; });

  auto due = pop(queue, 500 * kMs + 1);
  ASSERT_EQ(due.size(), 1u);
  due[0]();
  EXPECT_TRUE(fired);
}

#ifdef __linux__

namespace {
using net::EventLoop;
}  // namespace

TEST(EventLoopTest, EpollIsAvailableOnLinux) {
  EXPECT_TRUE(net::epoll_available());
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::vector<int> order;
  loop.post([&] {
    // Armed shortest-last: ordering must come from deadlines, not arming.
    loop.add_timer_after(30 * kMs, [&] {
      order.push_back(3);
      loop.stop();
    });
    loop.add_timer_after(20 * kMs, [&] { order.push_back(2); });
    loop.add_timer_after(10 * kMs, [&] { order.push_back(1); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, PostFromAnotherThreadWakesASleepingLoop) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::atomic<bool> ran{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.post([&] {
      ran = true;
      loop.stop();
    });
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();  // no fds, no timers: parked in epoll_wait until woken
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  waker.join();
  EXPECT_TRUE(ran.load());
  // The eventfd wakeup must beat any fallback poll interval by a mile.
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

TEST(EventLoopTest, FdReadinessDispatchesToItsCallback) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::string received;
  loop.post([&] {
    ASSERT_TRUE(loop.add_fd(fds[0], EventLoop::kRead, [&] {
      char buf[16];
      const ssize_t n = ::read(fds[0], buf, sizeof buf);
      ASSERT_GT(n, 0);
      received.assign(buf, static_cast<std::size_t>(n));
      loop.stop();
    }));
  });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  });
  loop.run();
  writer.join();
  EXPECT_EQ(received, "ping");
  EXPECT_EQ(loop.fd_count(), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, CloseWhileTimerArmedThenRemoveFdIsSafe) {
  // A session that dies by fault injection closes its fd while its retry
  // timer is still armed; the teardown path then calls remove_fd on the
  // already-closed fd.  Neither step may crash or wedge the loop.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  int timer_fired = 0;
  loop.post([&] {
    ASSERT_TRUE(loop.add_fd(fds[0], EventLoop::kRead, [] {}));
    loop.add_timer_after(10 * kMs, [&] {
      ++timer_fired;
      ::close(fds[0]);        // fd dies while still registered
      loop.remove_fd(fds[0]);  // EPOLL_CTL_DEL on a closed fd: ignored
      loop.add_timer_after(5 * kMs, [&] {  // loop keeps ticking after
        ++timer_fired;
        loop.stop();
      });
    });
  });
  loop.run();
  ::close(fds[1]);
  EXPECT_EQ(timer_fired, 2);
  EXPECT_EQ(loop.fd_count(), 0u);
}

TEST(EventLoopTest, PeriodicRearmsUntilCancelled) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  int count = 0;
  loop.post([&] {
    // The callback cancels its own periodic — the reactor's pacing tick
    // does the same at shutdown.
    auto id = std::make_shared<EventLoop::TimerId>();
    *id = loop.add_periodic(5 * kMs, [&, id] {
      if (++count == 4) {
        EXPECT_TRUE(loop.cancel_timer(*id));
        loop.stop();
      }
    });
  });
  loop.run();
  EXPECT_EQ(count, 4);
}

TEST(EventLoopTest, StopDropsPendingWorkAndRunReturns) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  bool late_fired = false;
  loop.post([&] {
    loop.add_timer_after(3600ull * 1000 * kMs, [&] { late_fired = true; });
    loop.stop();
  });
  loop.run();  // must return promptly despite the hour-out timer
  EXPECT_FALSE(late_fired);
  EXPECT_FALSE(loop.running());
}

#endif  // __linux__

}  // namespace
}  // namespace fairshare
