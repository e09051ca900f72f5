// LoopbackClient — the raw nonblocking loopback client the serving tests
// share (serve_test, sharded_serve_test, cluster_serve_test, hotpath_test).
//
// It lives on the test's own thread: every await interleaves
// server.step(step_ms) with socket reads, so an exchange with an inline
// server is single-threaded and deterministic under FakeClock. The sharded
// plane's shards run on their own threads; awaits there pass step_ms = 1 so
// the acceptor's poll wakes on the reply-channel fds.
//
// Allocation-free once warmed: frames are encoded into a stack buffer and
// replies are counted as they arrive. With `record` on (the default) every
// message is also kept in `inbox`; with it off, the inbox holds only the
// messages not yet matched by an await, so its capacity stops growing (the
// AllocProbe serve-session test relies on this).
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "serve/protocol.hpp"
#include "util/logging.hpp"

namespace sjs::testutil {

class LoopbackClient {
 public:
  explicit LoopbackClient(int port, bool record = true) : record_(record) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SJS_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    SJS_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SJS_CHECK(::fcntl(fd_, F_SETFL, O_NONBLOCK) == 0);
  }
  ~LoopbackClient() { close(); }

  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send(const serve::Message& m) {
    std::uint8_t frame[serve::kMaxFrame];
    send_raw(frame, serve::encode_frame_into(frame, m));
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    send_raw(bytes.data(), bytes.size());
  }

  /// Drains readable bytes into the decoder; true if the peer closed.
  bool read_socket() {
    std::uint8_t buf[serve::FrameDecoder::kMaxRead];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        serve::Message m;
        while (decoder_.next(m) == serve::FrameDecoder::Status::kOk) note(m);
        continue;
      }
      if (n == 0) return true;  // orderly close
      return false;             // EAGAIN: nothing more right now
    }
  }

  /// Steps the server until a message matching `pred` arrives; fails the
  /// test (and returns a default Message) after `spins` fruitless cycles.
  template <typename Server, typename Pred>
  serve::Message await(Server& server, Pred pred, int step_ms = 0,
                       int spins = 4000) {
    if (!record_) {
      // Forget what earlier awaits already handed out (no allocation:
      // erase keeps the capacity).
      inbox.erase(inbox.begin(),
                  inbox.begin() + static_cast<std::ptrdiff_t>(scanned_));
      scanned_ = 0;
    }
    for (int i = 0; i < spins; ++i) {
      for (std::size_t j = scanned_; j < inbox.size(); ++j) {
        if (pred(inbox[j])) {
          scanned_ = j + 1;
          return inbox[j];
        }
      }
      scanned_ = inbox.size();
      server.step(step_ms);
      read_socket();
    }
    ADD_FAILURE() << "no matching reply after " << spins << " spins";
    return serve::Message{};
  }

  template <typename Server>
  serve::Message await_seq(Server& server, std::uint64_t seq,
                           int step_ms = 0) {
    return await(
        server, [seq](const serve::Message& m) { return m.seq == seq; },
        step_ms);
  }

  /// Every message received (record on), or those not yet matched by an
  /// await (record off).
  std::vector<serve::Message> inbox;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;

 private:
  void send_raw(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n =
          ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      SJS_CHECK_MSG(n > 0, "test client send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  void note(const serve::Message& m) {
    accepted += m.type == serve::MsgType::kAccepted ? 1 : 0;
    rejected += m.type == serve::MsgType::kRejected ? 1 : 0;
    completed += m.type == serve::MsgType::kCompleted ? 1 : 0;
    expired += m.type == serve::MsgType::kExpired ? 1 : 0;
    // Notifications echo their SUBMIT's seq; with record off only direct
    // replies are kept for await_seq to match.
    const bool notification = m.type == serve::MsgType::kCompleted ||
                              m.type == serve::MsgType::kExpired;
    if (record_ || !notification) inbox.push_back(m);
  }

  bool record_;
  int fd_ = -1;
  serve::FrameDecoder decoder_;
  std::size_t scanned_ = 0;  // inbox prefix already handed out by await()
};

}  // namespace sjs::testutil
