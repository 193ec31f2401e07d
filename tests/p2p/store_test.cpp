// Peer message storage.
#include <gtest/gtest.h>

#include "p2p/store.hpp"

namespace fairshare::p2p {
namespace {

coding::EncodedMessage msg(std::uint64_t file, std::uint64_t id,
                           std::size_t bytes = 10) {
  coding::EncodedMessage m;
  m.file_id = file;
  m.message_id = id;
  m.payload.assign(bytes, std::byte{static_cast<std::uint8_t>(id)});
  return m;
}

TEST(MessageStore, StoreAndRetrieve) {
  MessageStore store;
  EXPECT_TRUE(store.store(msg(1, 0)));
  EXPECT_TRUE(store.store(msg(1, 1)));
  EXPECT_TRUE(store.store(msg(2, 0)));
  EXPECT_EQ(store.count(1), 2u);
  EXPECT_EQ(store.count(2), 1u);
  EXPECT_EQ(store.count(3), 0u);
  EXPECT_EQ(store.at(1, 1).message_id, 1u);
  EXPECT_EQ(store.at(2, 0).file_id, 2u);
}

TEST(MessageStore, RejectsDuplicateMessageId) {
  MessageStore store;
  EXPECT_TRUE(store.store(msg(1, 5)));
  EXPECT_FALSE(store.store(msg(1, 5)));
  EXPECT_EQ(store.count(1), 1u);
}

TEST(MessageStore, SameIdDifferentFilesAllowed) {
  MessageStore store;
  EXPECT_TRUE(store.store(msg(1, 5)));
  EXPECT_TRUE(store.store(msg(2, 5)));
}

TEST(MessageStore, EnforcesPerFileLimit) {
  MessageStore store(2);  // the k' < k mode of Section III-D
  EXPECT_TRUE(store.store(msg(1, 0)));
  EXPECT_TRUE(store.store(msg(1, 1)));
  EXPECT_FALSE(store.store(msg(1, 2)));
  EXPECT_EQ(store.count(1), 2u);
  // Other files have their own budget.
  EXPECT_TRUE(store.store(msg(9, 0)));
}

TEST(MessageStore, TracksBytesUsed) {
  MessageStore store;
  EXPECT_EQ(store.bytes_used(), 0u);
  store.store(msg(1, 0, 100));
  store.store(msg(1, 1, 50));
  EXPECT_EQ(store.bytes_used(), 150u);
  store.store(msg(1, 1, 70));  // duplicate: not counted
  EXPECT_EQ(store.bytes_used(), 150u);
}

}  // namespace
}  // namespace fairshare::p2p
