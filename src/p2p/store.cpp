#include "p2p/store.hpp"

#include <algorithm>
#include <cassert>

namespace fairshare::p2p {

bool MessageStore::store(coding::EncodedMessage message) {
  auto& list = files_[message.file_id];
  if (list.size() >= per_file_limit_) return false;
  const auto dup = std::find_if(
      list.begin(), list.end(), [&](const coding::EncodedMessage& m) {
        return m.message_id == message.message_id;
      });
  if (dup != list.end()) return false;
  bytes_used_ += message.payload.size();
  list.push_back(std::move(message));
  return true;
}

std::vector<std::uint64_t> MessageStore::file_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(files_.size());
  for (const auto& [fid, list] : files_)
    if (!list.empty()) ids.push_back(fid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MessageStore::count(std::uint64_t file_id) const {
  const auto it = files_.find(file_id);
  return it == files_.end() ? 0 : it->second.size();
}

const coding::EncodedMessage& MessageStore::at(std::uint64_t file_id,
                                               std::size_t index) const {
  const auto it = files_.find(file_id);
  assert(it != files_.end() && index < it->second.size());
  return it->second[index];
}

}  // namespace fairshare::p2p
