// Wall-clock abstraction and the monotonic→virtual time bridge.
//
// The simulation core is wall-clock-free by contract (the banned-time lint
// rule); real-time serving needs exactly one sanctioned read site, and this
// is it: SystemClock (clock.cpp) is the only translation unit outside util/
// allowed to touch a clock, via an audited lint suppression. Everything else
// — the admission server, the load generator, the tests — takes a Clock& so
// the whole serving stack runs deterministically (and time-accelerated)
// under FakeClock.
//
// Clock::now() is *monotonic seconds from an arbitrary epoch*: it never goes
// backwards and carries no calendar meaning. ClockBridge anchors an epoch at
// start() and maps wall seconds to virtual simulation seconds with a
// configurable acceleration factor, so a one-hour simulated session can be
// served in seconds (load tests) or in real time (production).
#pragma once

#include <atomic>

#include "util/logging.hpp"

namespace sjs::serve {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic seconds since an arbitrary fixed epoch. Never decreases.
  virtual double now() = 0;
};

/// The real monotonic clock (CLOCK_MONOTONIC). The single sanctioned
/// wall-clock read site outside util/ — see clock.cpp.
class SystemClock : public Clock {
 public:
  double now() override;
};

/// Manually driven clock for deterministic tests. Starts at 0. now() is
/// safe to call from shard threads while the test driver advances the clock
/// (the sharded admission plane reads one shared FakeClock from N+1
/// threads); advance()/set() stay single-writer.
class FakeClock : public Clock {
 public:
  double now() override { return now_.load(std::memory_order_acquire); }

  void advance(double dt) {
    SJS_CHECK_MSG(dt >= 0.0, "FakeClock cannot go backwards");
    now_.store(now_.load(std::memory_order_relaxed) + dt,
               std::memory_order_release);
  }
  void set(double t) {
    SJS_CHECK_MSG(t >= now_.load(std::memory_order_relaxed),
                  "FakeClock cannot go backwards");
    now_.store(t, std::memory_order_release);
  }

 private:
  // sjs-lint: allow(raw-concurrency): single-writer test clock read by N shard threads; a channel round-trip per now() would serialise shards on the driver
  std::atomic<double> now_{0.0};
};

/// Maps wall time onto virtual simulation time:
///
///   virtual = (wall - epoch) * accel
///
/// `accel` is virtual seconds per wall second (1 = real time; 60 = one
/// simulated minute per wall second). The epoch is captured by start(), so
/// virtual time is 0 at session start and strictly tied to the monotonic
/// clock thereafter.
class ClockBridge {
 public:
  ClockBridge(Clock& clock, double accel = 1.0) : clock_(&clock),
                                                  accel_(accel) {
    SJS_CHECK_MSG(accel > 0.0, "acceleration must be positive");
  }

  /// Anchors virtual 0 at the clock's current reading.
  void start() {
    epoch_ = clock_->now();
    started_ = true;
  }

  /// Anchors virtual 0 at an externally captured epoch. The sharded plane
  /// reads the clock ONCE at server start and hands the same epoch to the
  /// acceptor's and every shard's bridge, so "virtual now" is one global
  /// timeline instead of N slightly-skewed ones.
  void start_at(double epoch) {
    epoch_ = epoch;
    started_ = true;
  }

  bool started() const { return started_; }

  /// Current virtual time (>= 0, non-decreasing).
  double virtual_now() const {
    SJS_CHECK_MSG(started_, "ClockBridge::virtual_now before start()");
    return (clock_->now() - epoch_) * accel_;
  }

  /// Wall seconds from now until virtual time `v` is reached (<= 0 when v is
  /// already past). The event loop's poll-timeout computation.
  double wall_until(double v) const {
    SJS_CHECK_MSG(started_, "ClockBridge::wall_until before start()");
    return v / accel_ - (clock_->now() - epoch_);
  }

  double accel() const { return accel_; }

 private:
  Clock* clock_;
  double accel_;
  double epoch_ = 0.0;
  bool started_ = false;
};

}  // namespace sjs::serve
