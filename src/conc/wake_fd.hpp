// WakeFd — a poll(2)-composable wakeup primitive (one Linux eventfd).
//
// The channel subsystem needs a way for a producer thread to rouse a
// consumer that is parked in poll(2) over sockets: the producer signals,
// the consumer sees the fd readable alongside its other fds, drains it, and
// services the channel:
//
//   signal()  — async-signal-unsafe but thread-safe; edge-coalescing (many
//               signals before a drain still cost one wakeup). Never blocks:
//               a saturated counter simply means a wakeup is already pending.
//   fd()      — registered with poll/select by the ONE consumer thread.
//   drain()   — consumer-side: one read(2) zeroes the counter, consuming
//               every pending wakeup, so the fd stops polling readable until
//               the next signal().
//
// Level-triggered consumers must drain() before re-polling or they spin.
#pragma once

namespace sjs::conc {

class WakeFd {
 public:
  /// Opens the eventfd. Throws std::runtime_error on failure.
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  /// Makes fd() readable. Thread-safe, nonblocking, coalescing.
  void signal();

  /// The eventfd for the consumer's poll set.
  int fd() const { return fd_; }

  /// Consumes all pending wakeups (consumer thread only).
  void drain();

 private:
  int fd_ = -1;
};

}  // namespace sjs::conc
