// Unit tests for serve::EventLoop, the reactor under every serving front
// end: write before sleep (queued output leaves before the next wait, with
// no POLLOUT round), the POLLOUT resume of output a slow peer's socket
// refused, the write-budget drop, the close upcalls, and the listener's
// port range check. The peer is a plain loopback socket on the test's own
// thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/event_loop.hpp"
#include "util/logging.hpp"

namespace {

using sjs::serve::EventLoop;

/// Records every upcall; on_data answers with `reply` when it is set.
class RecordingHandler : public EventLoop::Handler {
 public:
  void on_accept(int conn) override { accepted.push_back(conn); }
  void on_data(int conn, const std::uint8_t* data, std::size_t size) override {
    received.insert(received.end(), data, data + size);
    if (!reply.empty()) loop->send(conn, reply.data(), reply.size());
  }
  void on_close(int conn, bool overflow) override {
    closed.push_back(conn);
    overflows.push_back(overflow);
  }
  void on_wake(int /*fd*/) override {}

  EventLoop* loop = nullptr;
  std::vector<std::uint8_t> reply;
  std::vector<int> accepted;
  std::vector<std::uint8_t> received;
  std::vector<int> closed;
  std::vector<bool> overflows;
};

/// A blocking loopback peer; `rcvbuf` > 0 shrinks its receive buffer before
/// the connect, so a server that writes much more than it reads backs up.
int connect_peer(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SJS_CHECK(fd >= 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  SJS_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0);
  return fd;
}

/// Everything readable on `fd` right now, without blocking.
std::vector<std::uint8_t> read_available(int fd) {
  std::vector<std::uint8_t> out;
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

struct LoopFixture : ::testing::Test {
  LoopFixture() : loop(handler) {
    handler.loop = &loop;
    loop.listen_loopback(0);
  }

  /// Connects a peer and polls until the loop has accepted it.
  int connect_and_accept(int rcvbuf = 0) {
    const int fd = connect_peer(loop.port(), rcvbuf);
    for (int i = 0; i < 1000 && handler.accepted.empty(); ++i) {
      loop.poll_once(1000);
    }
    SJS_CHECK(handler.accepted.size() == 1);
    return fd;
  }

  RecordingHandler handler;
  EventLoop loop;
};

TEST_F(LoopFixture, QueuedReplyIsWrittenBeforeTheNextWait) {
  const int fd = connect_and_accept();
  handler.reply = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> request(3, 0x42);
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0), 3);
  for (int i = 0; i < 100000 && handler.received.empty(); ++i) {
    loop.poll_once(0);
  }
  ASSERT_EQ(handler.received.size(), 3u);
  EXPECT_TRUE(loop.writes_pending());
  // The next cycle writes the reply before it waits, so no POLLOUT is armed:
  // with the peer idle, the 20 ms wait sees no activity at all.
  EXPECT_EQ(loop.poll_once(20000), 0);
  EXPECT_FALSE(loop.writes_pending());
  EXPECT_EQ(loop.bytes_out(), 5u);
  pollfd readable{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 1000), 1);
  EXPECT_EQ(read_available(fd), handler.reply);

  // The owner can write what its upcalls queued without another cycle.
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0), 3);
  for (int i = 0; i < 100000 && handler.received.size() < 6; ++i) {
    loop.poll_once(0);
  }
  ASSERT_EQ(handler.received.size(), 6u);
  loop.flush();
  EXPECT_FALSE(loop.writes_pending());
  EXPECT_EQ(loop.bytes_out(), 10u);
  ASSERT_EQ(::poll(&readable, 1, 1000), 1);
  EXPECT_EQ(read_available(fd), handler.reply);
  ::close(fd);
}

TEST_F(LoopFixture, SlowPeerKeepsTheRemainderQueuedAndPolloutResumesIt) {
  constexpr std::size_t kTotal = 4u << 20;  // far beyond both socket buffers
  loop.set_max_write_buffer(2 * kTotal);
  const int fd = connect_and_accept(/*rcvbuf=*/4096);
  std::vector<std::uint8_t> payload(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  ASSERT_TRUE(loop.send(handler.accepted[0], payload.data(), payload.size()));
  loop.poll_once(0);
  // The kernel took what fit; the rest stays queued, nothing is lost.
  EXPECT_TRUE(loop.writes_pending());
  EXPECT_LT(loop.bytes_out(), kTotal);
  EXPECT_GT(loop.bytes_out(), 0u);
  EXPECT_TRUE(handler.closed.empty());

  // The peer drains; each POLLOUT wake-up moves the remainder along.
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 200000 && got.size() < kTotal; ++i) {
    const std::vector<std::uint8_t> chunk = read_available(fd);
    got.insert(got.end(), chunk.begin(), chunk.end());
    loop.poll_once(1000);
  }
  EXPECT_FALSE(loop.writes_pending());
  EXPECT_EQ(loop.bytes_out(), kTotal);
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(handler.closed.empty());
  ::close(fd);
}

TEST_F(LoopFixture, ExceedingTheWriteBudgetDropsTheConnectionAsOverflow) {
  loop.set_max_write_buffer(4096);
  const int fd = connect_and_accept();
  const int conn = handler.accepted[0];
  const std::vector<std::uint8_t> fits(4096, 1);
  EXPECT_TRUE(loop.send(conn, fits.data(), fits.size()));
  const std::vector<std::uint8_t> one_more(1, 2);
  EXPECT_FALSE(loop.send(conn, one_more.data(), one_more.size()));
  EXPECT_FALSE(loop.conn_open(conn));
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_EQ(handler.closed[0], conn);
  EXPECT_TRUE(handler.overflows[0]);
  EXPECT_FALSE(loop.writes_pending());
  ::close(fd);
}

TEST_F(LoopFixture, PeerCloseIsANormalClose) {
  const int fd = connect_and_accept();
  const std::vector<std::uint8_t> last_words(16, 0x5a);
  ASSERT_EQ(::send(fd, last_words.data(), last_words.size(), 0), 16);
  ::close(fd);
  for (int i = 0; i < 1000 && handler.closed.empty(); ++i) {
    loop.poll_once(1000);
  }
  // What the peer sent before closing is still delivered.
  EXPECT_EQ(handler.received, last_words);
  ASSERT_EQ(handler.closed.size(), 1u);
  EXPECT_EQ(handler.closed[0], handler.accepted[0]);
  EXPECT_FALSE(handler.overflows[0]);
  EXPECT_EQ(loop.open_conn_count(), 0u);
}

TEST(EventLoopListen, RefusesAPortOutsideTheRangeBeforeBinding) {
  // htons would wrap 70000 onto 4464 and -1 onto 65535: both are refused
  // before any socket exists, and the loop can still listen afterwards.
  RecordingHandler handler;
  EventLoop loop(handler);
  for (const int port : {70000, 65536, -1}) {
    try {
      loop.listen_loopback(port);
      ADD_FAILURE() << "port " << port << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(port)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(loop.port(), 0);
  }
  const int bound = loop.listen_loopback(0);
  EXPECT_GT(bound, 0);
  EXPECT_EQ(loop.port(), bound);
}

TEST(WaitFds, TimesOutWithNothingReadyAndSeesAReadyFd) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  pollfd pfd{pipe_fds[0], POLLIN, 0};
  EXPECT_EQ(sjs::serve::wait_fds(&pfd, 1, 0), 0);
  EXPECT_EQ(sjs::serve::wait_fds(&pfd, 1, 200), 0);  // 200 µs, nothing ready
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  EXPECT_EQ(sjs::serve::wait_fds(&pfd, 1, -1), 1);  // ready: no wait at all
  EXPECT_NE(pfd.revents & POLLIN, 0);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

}  // namespace
