// conc::Channel<T> — bounded FIFO channel with a close/drain state machine,
// designed to compose with poll(2) event loops.
//
// This is the ONLY sanctioned cross-thread traffic primitive for the serving
// plane (the raw-concurrency lint rule bans std::thread/std::mutex/atomics
// in src/serve/ and src/sched/ outside src/conc/ and util/thread_pool).
//
// Shape: a fixed ring of `capacity` slots, preallocated at construction —
// steady state allocates nothing as long as T's move assignment does not.
// ONE consumer. The sharded plane gives every channel one producer too (the
// acceptor feeds each request channel, each shard its reply channel); the
// mutex keeps several producers safe as well, each one's messages staying
// in its send order.
//
// Sends:
//
//   try_send(v)      enqueues v at the tail, or refuses with kFull when
//                    `capacity` messages are unconsumed (backpressure) or
//                    kClosed after close(); a refused value is not sent.
//
// Close/drain state machine:
//
//   open ──close()──▶ closed ──(all messages consumed)──▶ drained
//
// close() only refuses NEW sends; everything already in the ring stays
// deliverable. The consumer keeps popping until try_pop returns kDrained —
// that is the barrier that makes "close, then join" lossless.
//
// Wakeups: the channel owns an eventfd WakeFd. Every send and close signals
// it; the consumer registers wake_fd() in its poll set and must
// drain_wakeups() then pop until kEmpty/kDrained on every wakeup. A pending
// flag coalesces signals so steady-state cost is one atomic exchange per
// send and one syscall per consumer sleep/wake cycle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "conc/wake_fd.hpp"
#include "util/logging.hpp"

namespace sjs::conc {

// Namespace-scope so call sites and tests can name them without spelling
// the channel's value type.
enum class SendStatus : std::uint8_t {
  kOk,      ///< message enqueued
  kFull,    ///< `capacity` messages are unconsumed — backpressure
  kClosed,  ///< close() was called; no new sends
};

enum class PopStatus : std::uint8_t {
  kOk,       ///< a message was delivered
  kEmpty,    ///< nothing queued right now (channel open)
  kDrained,  ///< closed AND every message consumed
};

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : slots_(capacity) {
    SJS_CHECK_MSG(capacity > 0, "Channel capacity must be positive");
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // --- producer side -------------------------------------------------------

  /// Enqueues `value`. kFull/kClosed leave it unsent.
  SendStatus try_send(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return SendStatus::kClosed;
      if (tail_ - head_ >= slots_.size()) return SendStatus::kFull;
      slot(tail_++) = std::move(value);
    }
    signal_consumer();
    return SendStatus::kOk;
  }

  /// Refuses new sends. Idempotent; callable from any thread. Queued
  /// messages still deliver.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      closed_ = true;
    }
    signal_consumer();
  }

  // --- consumer side (one thread) -----------------------------------------

  /// Delivers the oldest queued message.
  PopStatus try_pop(T& out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (head_ == tail_) {
      return closed_ ? PopStatus::kDrained : PopStatus::kEmpty;
    }
    T& front = slot(head_++);
    out = std::move(front);
    front = T{};
    return PopStatus::kOk;
  }

  /// The fd to include in the consumer's poll set (readable on wakeup).
  int wake_fd() const { return wake_.fd(); }

  /// Consumes pending wakeups and re-arms signalling. Call on every poll
  /// wakeup BEFORE popping: a message sent after the final kEmpty then
  /// re-signals the fd, so no transition is ever missed. The order matters
  /// too: re-arming before the read could let a send signal the fd, have
  /// the read swallow it, and leave the pending flag set with nothing to
  /// wake the consumer.
  void drain_wakeups() {
    wake_.drain();
    signal_pending_.store(false, std::memory_order_release);
  }

  /// drain_wakeups() only while a signal is pending: a consumer that checks
  /// the channel without having been woken skips the read(2). The fd can be
  /// readable with the flag clear (a signal that raced the last drain), so
  /// the handler of the fd's own poll wakeup calls drain_wakeups() instead.
  void drain_pending_wakeups() {
    if (signal_pending_.load(std::memory_order_acquire)) drain_wakeups();
  }

  /// closed AND fully consumed — the terminal state.
  bool drained() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && head_ == tail_;
  }

 private:
  T& slot(std::uint64_t seq) { return slots_[seq % slots_.size()]; }

  void signal_consumer() {
    // Coalesce: only the first signal after a drain pays the syscall.
    if (!signal_pending_.exchange(true, std::memory_order_acq_rel)) {
      wake_.signal();
    }
  }

  mutable std::mutex mu_;
  std::vector<T> slots_;
  std::uint64_t head_ = 0;  // next position to consume (absolute)
  std::uint64_t tail_ = 0;  // next position to fill (absolute)
  bool closed_ = false;
  std::atomic<bool> signal_pending_{false};
  WakeFd wake_;
};

}  // namespace sjs::conc
