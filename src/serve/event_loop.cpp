#include "serve/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>

#include "serve/protocol.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

int wait_fds(pollfd* fds, std::size_t n, std::int64_t timeout_us) {
  timespec timeout{};
  timespec* until = nullptr;  // nullptr: no timeout
  if (timeout_us >= 0) {
    timeout.tv_sec = static_cast<time_t>(timeout_us / 1000000);
    timeout.tv_nsec = static_cast<long>(timeout_us % 1000000) * 1000;
    until = &timeout;
  }
  const int ready = ::ppoll(fds, static_cast<nfds_t>(n), until, nullptr);
  return ready < 0 ? 0 : ready;
}

void use_serving_timer_slack() {
  ::prctl(PR_SET_TIMERSLACK, kServingTimerSlackNs, 0, 0, 0);
}

EventLoop::EventLoop(Handler& handler) : handler_(&handler) {}

EventLoop::~EventLoop() { shutdown(); }

int EventLoop::listen_loopback(int port) {
  // htons would wrap an out-of-range port onto some other one.
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("port " + std::to_string(port) +
                                " is outside [0, 65535]");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(listen_fd_, 64) < 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  set_nonblocking(listen_fd_);
  port_ = ntohs(addr.sin_port);
  return port_;
}

void EventLoop::watch(int fd) { util::append(watched_, fd); }

bool EventLoop::send(int conn, const std::uint8_t* data, std::size_t size) {
  if (!conn_open(conn)) return false;
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  if (c.wbuf.size() - c.wpos + size > max_write_buffer_) {
    drop_conn(conn, /*overflow=*/true);
    return false;
  }
  c.wbuf.insert(c.wbuf.end(), data, data + size);
  if (c.wbuf.size() - c.wpos > write_buffer_peak_) {
    write_buffer_peak_ = c.wbuf.size() - c.wpos;
  }
  return true;
}

void EventLoop::close_conn(int conn) {
  if (!conn_open(conn)) return;
  // Best-effort flush so a queued farewell (e.g. the kError reply that
  // precedes a protocol close) reaches the peer; loopback kernel buffers
  // make this reliable in practice. flush_conn may itself drop the conn.
  flush_conn(conn);
  if (conn_open(conn)) drop_conn(conn, /*overflow=*/false);
}

bool EventLoop::conn_open(int conn) const {
  return conn >= 0 && static_cast<std::size_t>(conn) < conns_.size() &&
         conns_[static_cast<std::size_t>(conn)].open;
}

std::size_t EventLoop::open_conn_count() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) n += c.open ? 1 : 0;
  return n;
}

bool EventLoop::writes_pending() const {
  for (const Conn& c : conns_) {
    if (c.open && c.wpos < c.wbuf.size()) return true;
  }
  return false;
}

void EventLoop::stop_listening() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void EventLoop::shutdown() {
  stop_listening();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].open) {
      ::close(conns_[i].fd);
      conns_[i].fd = -1;
      conns_[i].wbuf.clear();
      conns_[i].wpos = 0;
      conns_[i].open = false;
    }
  }
  watched_.clear();
}

int EventLoop::poll_once(std::int64_t timeout_us) {
  // Write before sleep: what the owner queued since the last cycle (the
  // pump's notifications, the acceptor's shard replies) goes to the kernel
  // now, so POLLOUT below is armed only where the socket refused some of it.
  flush();
  // Member scratch: clear() keeps capacity, so rebuilding the poll set each
  // cycle stops allocating once the fd high-water is reached. fds[i] belongs
  // to conn ids[i] (or a special slot).
  std::vector<pollfd>& fds = fds_scratch_;
  std::vector<int>& ids = ids_scratch_;
  fds.clear();
  ids.clear();
  if (listen_fd_ >= 0) {
    util::append(fds, pollfd{listen_fd_, POLLIN, 0});
    util::append(ids, -1);
  }
  for (int w : watched_) {
    util::append(fds, pollfd{w, POLLIN, 0});
    util::append(ids, -2);
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i].open) continue;
    short ev = POLLIN;
    if (conns_[i].wpos < conns_[i].wbuf.size()) ev |= POLLOUT;
    util::append(fds, pollfd{conns_[i].fd, ev, 0});
    util::append(ids, static_cast<int>(i));
  }
  const int n = wait_fds(fds.data(), fds.size(), timeout_us);
  if (n == 0) return 0;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (ids[i] == -1) {
      accept_new();
    } else if (ids[i] == -2) {
      handler_->on_wake(fds[i].fd);
    } else {
      const int conn = ids[i];
      // The conn may have been dropped by an earlier upcall this cycle.
      if (!conn_open(conn) ||
          conns_[static_cast<std::size_t>(conn)].fd != fds[i].fd) {
        continue;
      }
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Read whatever the peer flushed before closing, then drop.
        read_conn(conn);
        if (conn_open(conn)) drop_conn(conn, /*overflow=*/false);
        continue;
      }
      if (fds[i].revents & POLLIN) read_conn(conn);
      if (conn_open(conn) && (fds[i].revents & POLLOUT)) flush_conn(conn);
    }
  }
  return n;
}

void EventLoop::accept_new() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int conn = -1;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].open) {
        conn = static_cast<int>(i);
        break;
      }
    }
    if (conn < 0) {
      conn = static_cast<int>(conns_.size());
      // Per-connection accept path, not per-request steady state; slots are
      // reused after close, so growth stops at the concurrency high-water.
      util::append_emplace(conns_);
    }
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    c.fd = fd;
    c.wbuf.clear();
    c.wpos = 0;
    c.open = true;
    handler_->on_accept(conn);
  }
}

void EventLoop::read_conn(int conn) {
  // One recv at most fills the room each FrameDecoder keeps for it.
  std::uint8_t buf[FrameDecoder::kMaxRead];
  while (conn_open(conn)) {
    const ssize_t n =
        ::recv(conns_[static_cast<std::size_t>(conn)].fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_ += static_cast<std::uint64_t>(n);
      handler_->on_data(conn, buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
    } else if (n == 0) {
      drop_conn(conn, /*overflow=*/false);
      break;
    } else {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        drop_conn(conn, /*overflow=*/false);
      }
      break;
    }
  }
}

void EventLoop::flush_conn(int conn) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  while (c.wpos < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.wpos,
                             c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      c.wpos += static_cast<std::size_t>(n);
      bytes_out_ += static_cast<std::uint64_t>(n);
    } else {
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        drop_conn(conn, /*overflow=*/false);
      }
      return;
    }
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
  }
}

void EventLoop::flush() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].open && conns_[i].wpos < conns_[i].wbuf.size()) {
      flush_conn(static_cast<int>(i));
    }
  }
}

void EventLoop::drop_conn(int conn, bool overflow) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  ::close(c.fd);
  // Field-wise reset, not `c = Conn{}`: the write buffer keeps its capacity
  // for the next connection that reuses this slot.
  c.fd = -1;
  c.wbuf.clear();
  c.wpos = 0;
  c.open = false;
  handler_->on_close(conn, overflow);
}

}  // namespace sjs::serve
