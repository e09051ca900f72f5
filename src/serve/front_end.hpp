// FrontEnd — the connection side every serving front end shares
// (docs/serving.md).
//
// Owns the EventLoop and everything per connection: a FrameDecoder and a
// generation per connection id (bumped on close, so a reply routed to a
// dead incarnation is dropped), the watched shutdown fds, malformed-frame
// and wrong-direction teardown, the locally answered STATS and DRAIN
// requests, and the bounded flush-then-shutdown that ends every session.
// SUBMIT, CANCEL and QUERY go to the concrete front end:
//
//   serve::InlineServer<Backend>   answers them from a serve::Session on
//                                  this thread (AdmissionServer,
//                                  cluster::ClusterServer)
//   serve::ShardedAdmissionServer  forwards them to shard threads
//
// Lifecycle: start() binds the listener; step() runs the front end's
// serve() until it reports the back end finished, then flushes queued
// output (at most 200 bounded spins: a peer that stops reading cannot wedge
// the drain) and shuts the loop down. Single-threaded: every member is
// touched only from the thread calling step().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"

namespace sjs::serve {

/// The longest a draining front end waits between its flush and reply
/// checks.
inline constexpr std::int64_t kDrainWaitUs = 10000;

/// A wait of at most `cap_us` and at most `bound_us`; a negative cap (no
/// cap) becomes the bound.
constexpr std::int64_t capped_wait_us(std::int64_t cap_us,
                                      std::int64_t bound_us) {
  return cap_us < 0 ? bound_us : std::min(cap_us, bound_us);
}

class FrontEnd : public EventLoop::Handler {
 public:
  ~FrontEnd() override;

  /// One pump cycle, waiting at most `max_wait_ms` (negative: no cap) for a
  /// socket or the next simulated event. Returns false once fully drained.
  // sjs-hot-path-root
  bool step(int max_wait_ms = 50);

  /// Serves until drained (DRAIN request or request_drain()).
  void run();

  /// Initiates graceful drain: stop accepting, refuse new submits, let the
  /// back end resolve its backlog, flush, shut down. Callable from a
  /// request handler or after a signal wake.
  void request_drain();

  bool draining() const { return draining_; }
  bool finished() const { return finished_; }

  /// Live counters (also the body of STATS replies).
  virtual StatsBody stats() const = 0;

  int port() const { return loop_.port(); }
  EventLoop& loop() { return loop_; }

  /// Registers `fd` (e.g. a signal self-pipe) with the loop; when it becomes
  /// readable the server drains it and initiates a drain.
  void watch_shutdown_fd(int fd);

  // EventLoop::Handler:
  void on_accept(int conn) override;
  void on_data(int conn, const std::uint8_t* data, std::size_t size) override;
  void on_close(int conn, bool overflow) override;
  void on_wake(int fd) override;

 protected:
  /// `metrics` may be null; the connection counters go to this thread's
  /// shard of it.
  FrontEnd(Clock& clock, std::size_t max_write_buffer,
           obs::MetricsRegistry* metrics);

  /// Binds the listener and marks the front end started. Returns the port.
  int listen(int port);

  /// SUBMIT, CANCEL or QUERY from `conn`.
  virtual void on_request(int conn, const Message& m) = 0;
  /// Serves one cycle, waiting at most `max_wait_us` wall microseconds
  /// (negative: no cap); returns true once the back end has finished (all
  /// results final), after which step() only flushes and shuts down.
  virtual bool serve(std::int64_t max_wait_us) = 0;
  /// Extra drain work, run once by request_drain().
  virtual void on_drain() = 0;
  /// A watched fd other than a shutdown fd became readable.
  virtual void on_other_wake(int /*fd*/) {}

  /// Ships `m` to `conn` if it is still incarnation `gen`.
  void send_to(int conn, std::uint64_t gen, const Message& m);
  /// Replies on a connection whose data is being handled.
  void reply(int conn, const Message& m);
  /// The current incarnation of `conn`.
  std::uint64_t gen_of(int conn) const {
    return conn_gens_[static_cast<std::size_t>(conn)];
  }
  void count(std::string_view name, double delta = 1.0) {
    if (shard_) shard_->count(name, delta);
  }
  void set_gauge(std::string_view name, double value) {
    if (shard_) shard_->set_gauge(name, value);
  }

  Clock* clock_;
  obs::MetricsRegistry* metrics_;

 private:
  void handle_message(int conn, const Message& m);

  EventLoop loop_;
  obs::MetricsRegistry::Shard* shard_ = nullptr;  ///< cached local() shard
  std::vector<FrameDecoder> decoders_;    // indexed by conn id
  std::vector<std::uint64_t> conn_gens_;  // bumped on close
  std::vector<int> shutdown_fds_;

  bool started_ = false;
  bool draining_ = false;
  bool slack_set_ = false;  ///< use_serving_timer_slack() ran
  bool served_ = false;  ///< serve() reported the back end finished
  bool finished_ = false;
  int flush_spins_ = 0;
};

}  // namespace sjs::serve
