// TCP framing layer over loopback.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "net/socket.hpp"

namespace fairshare::net {
namespace {

TEST(Socket, ConnectToClosedPortFails) {
  // Bind then immediately close to obtain a (very likely) dead port.
  auto probe = Listener::bind_local(0);
  ASSERT_TRUE(probe.has_value());
  const std::uint16_t port = probe->port();
  probe->close();
  EXPECT_FALSE(Socket::connect_to("127.0.0.1", port).has_value());
}

TEST(Socket, FrameRoundTripOverLoopback) {
  auto listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.has_value());

  std::vector<std::byte> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = std::byte{static_cast<std::uint8_t>(i * 31)};

  std::thread server([&] {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    const auto got = recv_frame(*conn, payload.size());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
    // Echo it back twice to exercise multiple frames per connection.
    EXPECT_TRUE(send_frame(*conn, *got));
    EXPECT_TRUE(send_frame(*conn, std::span<const std::byte>{}));  // empty
  });

  auto client = Socket::connect_to("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(send_frame(*client, payload));
  const auto echo = recv_frame(*client, payload.size());
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(*echo, payload);
  const auto empty = recv_frame(*client, payload.size());
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  server.join();
}

TEST(Socket, ScatterGatherFrameMatchesCopyingFrame) {
  // try_write_frame_ext(head, ext) must put the exact same bytes on the
  // wire as try_write_frame(head ++ ext), including when the payload is
  // large enough that the sendmsg drain spans many partial writes against
  // a full kernel send buffer — the zero-copy serve path's contract.
  auto listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.has_value());
  auto client = Socket::connect_to("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  auto conn = listener->accept();
  ASSERT_TRUE(conn.has_value());

  std::vector<std::byte> head(21);
  for (std::size_t i = 0; i < head.size(); ++i)
    head[i] = std::byte{static_cast<std::uint8_t>(0xA0 + i)};
  std::vector<std::byte> ext(1 << 20);
  for (std::size_t i = 0; i < ext.size(); ++i)
    ext[i] = std::byte{static_cast<std::uint8_t>(i * 131 + 7)};
  std::vector<std::byte> whole = head;
  whole.insert(whole.end(), ext.begin(), ext.end());

  std::thread writer([&] {
    const auto drain = [&] {
      while (conn->want_write()) {
        const IoStatus st = conn->try_flush();
        if (st == IoStatus::blocked) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        ASSERT_EQ(st, IoStatus::ok);
      }
    };
    const TryWrite r = conn->try_write_frame_ext(head, ext);
    ASSERT_TRUE(r.accepted);  // nothing staged: accepted even if blocked
    drain();
    const TryWrite r2 = conn->try_write_frame(whole);
    ASSERT_TRUE(r2.accepted);
    drain();
  });

  const auto gathered = recv_frame(*client, whole.size());
  ASSERT_TRUE(gathered.has_value());
  EXPECT_EQ(*gathered, whole);
  const auto copied = recv_frame(*client, whole.size());
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(*copied, whole);
  writer.join();
}

TEST(Socket, OversizedFrameRejected) {
  auto listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    const std::vector<std::byte> big(1000, std::byte{1});
    (void)send_frame(*conn, big);
  });
  auto client = Socket::connect_to("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_FALSE(recv_frame(*client, /*max_len=*/100).has_value());
  server.join();
}

TEST(Socket, RecvOnClosedConnectionFails) {
  auto listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->accept();
    // close immediately
  });
  auto client = Socket::connect_to("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  server.join();
  EXPECT_FALSE(recv_frame(*client, 1024).has_value());
}

TEST(Listener, NonBlockingAcceptWithoutClientReturnsAtOnce) {
  // The reactor's drain contract: accept until EAGAIN, never sleep.
  auto listener = Listener::bind_local(0);
  ASSERT_TRUE(listener.has_value());
  ASSERT_TRUE(listener->set_nonblocking(true));
  EXPECT_FALSE(listener->accept().has_value());
  // A pending client is accepted, then the queue is empty again.
  auto client = Socket::connect_to("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> conn;
  for (int i = 0; i < 1000 && !conn; ++i) {
    conn = listener->accept();
    if (!conn) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(conn.has_value());
  EXPECT_FALSE(listener->accept().has_value());
}

}  // namespace
}  // namespace fairshare::net
