#include "util/timer_queue.hpp"

namespace fairshare::util {

TimerQueue::TimerId TimerQueue::add(std::uint64_t deadline_ns, Callback cb) {
  const TimerId id = next_id_++;
  queue_.emplace(std::pair(deadline_ns, id), std::move(cb));
  deadline_by_id_.emplace(id, deadline_ns);
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  const auto it = deadline_by_id_.find(id);
  if (it == deadline_by_id_.end()) return false;
  queue_.erase(std::pair(it->second, id));
  deadline_by_id_.erase(it);
  return true;
}

std::size_t TimerQueue::advance(std::uint64_t now_ns,
                                std::vector<Callback>& out) {
  std::size_t expired = 0;
  for (auto it = queue_.begin();
       it != queue_.end() && it->first.first <= now_ns; ++expired) {
    deadline_by_id_.erase(it->first.second);
    out.push_back(std::move(it->second));
    it = queue_.erase(it);
  }
  return expired;
}

std::optional<std::uint64_t> TimerQueue::next_deadline_ns() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.begin()->first.first;
}

}  // namespace fairshare::util
