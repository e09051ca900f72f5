// Single-threaded ppoll(2) reactor for the admission service.
//
// Deliberately minimal: one listening socket on loopback, N nonblocking
// connections with per-connection bounded write queues, and optional extra
// watched fds (the daemon's signal self-pipe). The loop never reads a clock
// — wait timeouts, in microseconds, are computed by the caller from
// serve::ClockBridge — and never blocks on a write. Output is queued by
// send() and written before the loop sleeps: each poll_once() first hands
// every connection's queue to the kernel, and the owner may flush() what
// its upcalls queued without waiting for the next cycle. POLLOUT is armed
// only for a connection whose socket did not take everything, and a
// connection whose queue exceeds the budget is dropped (a slow consumer
// must shed, not wedge the admission path or grow without bound).
//
// Framing, protocol state, and scheduling live above this layer
// (serve::FrontEnd and serve::Session); the loop deals in raw bytes only.
#pragma once

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sjs::serve {

/// The serving stack's one blocking wait (the poll-outside-wait-fds lint rule
/// keeps every other poll out of src/serve, src/cluster and src/conc):
/// ppoll(2) over fds[0, n) for at most `timeout_us` wall microseconds. -1
/// waits until an fd fires, 0 only polls. Returns the number of ready fds,
/// or 0 on timeout or EINTR.
int wait_fds(pollfd* fds, std::size_t n, std::int64_t timeout_us);

/// Timer slack of every serving thread, in nanoseconds: how late the kernel
/// may end a wait_fds timeout to batch it with other wake-ups. The default
/// is 50 µs; this value comes from the sweep in
/// results/serve_live_wake_ab.json (docs/serving.md, "Waking on time").
inline constexpr unsigned long kServingTimerSlackNs = 5000;

/// Sets the calling thread's timer slack to kServingTimerSlackNs.
/// prctl(PR_SET_TIMERSLACK) acts on the calling thread only, so each serving
/// thread calls this once as it starts serving: a front end's loop thread
/// on its first step, a shard thread in ShardWorker::run_shard.
void use_serving_timer_slack();

class EventLoop {
 public:
  /// Upcalls into the owner. Connection ids are small integers, reused after
  /// close (the owner must treat on_close as the end of that incarnation).
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void on_accept(int conn) = 0;
    virtual void on_data(int conn, const std::uint8_t* data,
                         std::size_t size) = 0;
    /// Peer closed, read/write error, or write-budget overflow. The
    /// connection is already unregistered; `overflow` distinguishes a
    /// dropped slow consumer from a normal close.
    virtual void on_close(int conn, bool overflow) = 0;
    /// A watched fd became readable (signal self-pipe). The handler drains
    /// the fd itself.
    virtual void on_wake(int fd) = 0;
  };

  explicit EventLoop(Handler& handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Returns the
  /// bound port. Throws std::invalid_argument, before binding, for a port
  /// outside [0, 65535], and std::runtime_error on failure.
  int listen_loopback(int port);
  int port() const { return port_; }

  /// Registers an extra readable fd (not owned) surfaced via on_wake.
  void watch(int fd);

  /// Queues `size` bytes on `conn`. Returns false — and drops the
  /// connection, with on_close(overflow=true) — when the queue would exceed
  /// the write budget.
  bool send(int conn, const std::uint8_t* data, std::size_t size);

  void close_conn(int conn);
  bool conn_open(int conn) const;
  std::size_t open_conn_count() const;

  /// One cycle: write every queued output, wait at most `timeout_us` wall
  /// microseconds (0 = nonblocking pass, -1 = until activity), then accept,
  /// read (on_data) and resume POLLOUT writes. Returns the number of fds
  /// that had activity.
  int poll_once(std::int64_t timeout_us);

  /// Writes every connection's queued output now, as poll_once does before
  /// it sleeps; what the kernel refuses stays queued.
  void flush();

  /// True while any connection has unsent bytes queued (drain barrier).
  bool writes_pending() const;

  /// Closes the listener so no new connections land (drain), keeping
  /// established connections alive.
  void stop_listening();
  /// Closes everything (also done by the destructor).
  void shutdown();

  void set_max_write_buffer(std::size_t bytes) { max_write_buffer_ = bytes; }

  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }
  std::size_t write_buffer_peak() const { return write_buffer_peak_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> wbuf;  // unsent output; wpos = sent prefix
    std::size_t wpos = 0;
    bool open = false;
  };

  void accept_new();
  void read_conn(int conn);
  void flush_conn(int conn);
  void drop_conn(int conn, bool overflow);

  Handler* handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<Conn> conns_;
  std::vector<int> watched_;
  // poll_once scratch (member, not local: capacity persists across cycles,
  // so a warmed loop builds its poll set without allocating).
  std::vector<pollfd> fds_scratch_;
  std::vector<int> ids_scratch_;
  std::size_t max_write_buffer_ = 1 << 18;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::size_t write_buffer_peak_ = 0;
};

}  // namespace sjs::serve
