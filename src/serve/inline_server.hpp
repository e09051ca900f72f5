// InlineServer<Backend> — a serve::Session driven inline on the EventLoop
// thread (docs/serving.md): the single-engine AdmissionServer and the
// fleet-backed cluster::ClusterServer are this template over their
// backends.
//
// Single-threaded by construction: sockets, engine, and journal are all
// touched only from the thread calling step()/run(), so the whole daemon is
// trivially race-free (the TSan CI job runs the loopback tests).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/front_end.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace sjs::serve {

template <typename Backend>
class InlineServer : public FrontEnd, private ReplyTarget {
 public:
  using Result = typename Backend::Result;

  /// Binds the listener, writes the journal preamble, anchors the clock
  /// bridge, enters engine live mode. Returns the bound port. The listener
  /// comes first: a start that cannot bind leaves the journal directory as
  /// it found it.
  int start() {
    const int bound = listen(session_.backend().config().port);
    session_.open_journal();
    session_.begin_live(clock_->now(), metrics_);
    return bound;
  }

  StatsBody stats() const override { return session_.stats(); }

  /// Final result; valid once finished().
  const Result& result() const { return session_.result(); }
  const std::string& journal_dir() const { return session_.journal_dir(); }
  /// Non-empty once a journal write has failed. The failing request was
  /// answered ERROR(kJournalFailed) and the session began draining; callers
  /// (sjs_serve) should exit non-zero after the drain completes.
  const std::string& journal_error() const {
    return session_.journal_error();
  }
  /// The ring of recent trace events (empty unless trace_ring > 0).
  std::vector<obs::TraceEvent> recent_trace() const {
    return session_.recent_trace();
  }
  /// The session's job window: ring slots in use and reserved, peak
  /// unretired span, peak spilled stragglers, the peak of jobs in flight,
  /// and the journal's peak held outcome rows and held-row ring slots.
  std::size_t window_slots() const { return session_.window_slots(); }
  std::size_t window_reserved() const { return session_.window_reserved(); }
  std::uint64_t window_peak() const { return session_.window_peak(); }
  std::uint64_t window_stragglers() const {
    return session_.window_stragglers();
  }
  std::uint64_t in_flight_peak() const { return session_.in_flight_peak(); }
  std::uint64_t outcome_rows_held() const {
    return session_.outcome_rows_held();
  }
  std::size_t outcome_ring_slots() const {
    return session_.outcome_ring_slots();
  }

 protected:
  /// The clock is injected (SystemClock for the daemon, FakeClock in tests)
  /// and must outlive the server; `metrics` is optional.
  template <typename... BackendArgs>
  InlineServer(const typename Backend::Config& config, Clock& clock,
               obs::MetricsRegistry* metrics, BackendArgs&&... backend_args)
      : FrontEnd(clock, config.max_write_buffer, metrics),
        session_(config, clock, *this, std::string_view{},
                 std::forward<BackendArgs>(backend_args)...) {}

  const Backend& backend() const { return session_.backend(); }

 private:
  void on_request(int conn, const Message& m) override {
    const std::uint64_t gen = gen_of(conn);
    if (m.type == MsgType::kSubmit) {
      session_.submit(conn, gen, m);
    } else if (m.type == MsgType::kCancel) {
      session_.cancel(conn, gen, m);
    } else {
      session_.query(conn, gen, m);
    }
    // A journal failure drains the session; the connection side follows.
    if (session_.draining()) request_drain();
  }

  bool serve(std::int64_t max_wait_us) override {
    session_.pump();
    if (!draining()) {
      // Sleep until the next simulated event is due or a socket fires. Then
      // advance to now and write at once: the wake-up's replies leave in this
      // turn, and a notification that fell due meanwhile shares their send.
      const std::int64_t wait = session_.wait_us(max_wait_us);
      const int ready = loop().poll_once(wait);
      const std::uint64_t notified = session_.notified();
      session_.pump();
      session_.count_wakeup(wait, ready, notified);
      loop().flush();
      if (!draining()) return false;
    }
    session_.finalize();
    return true;
  }

  void on_drain() override { session_.request_drain(); }

  void send(int conn, std::uint64_t gen, const Message& m) override {
    send_to(conn, gen, m);
  }

  Session<Backend> session_;
};

}  // namespace sjs::serve
