#include "serve/shard_worker.hpp"

#include <poll.h>

#include <filesystem>
#include <string>

#include "serve/event_loop.hpp"
#include "util/logging.hpp"

namespace sjs::serve {

namespace {

/// Shard k's view of the plane config: it journals to `<root>/shard<k>`,
/// and keeps no trace ring (nothing reads a shard's recent trace).
ServerConfig shard_config(const ServerConfig& plane, std::size_t k) {
  ServerConfig config = plane;
  if (!plane.journal_dir.empty()) {
    config.journal_dir = (std::filesystem::path(plane.journal_dir) /
                          ("shard" + std::to_string(k))).string();
  }
  config.trace_ring = 0;
  return config;
}

}  // namespace

ShardWorker::ShardWorker(const ServerConfig& config, std::size_t shard_index,
                         std::unique_ptr<sim::Scheduler> scheduler,
                         Clock& clock, obs::MetricsRegistry* metrics)
    : poll_cap_us_(std::int64_t{config.shard_poll_ms} * 1000),
      metrics_(metrics),
      requests_(config.channel_capacity),
      // Sized so a healthy plane never fills it: every request in the input
      // channel yields at most one direct reply, and at most max_in_flight
      // admitted jobs can have an unshipped terminal notification at once.
      // send() still tolerates overflow (it waits) for the stalled-acceptor
      // corner, where notifications can transiently exceed this.
      replies_(config.channel_capacity + config.max_in_flight + 8),
      session_(shard_config(config, shard_index), clock, *this,
               ".shard" + std::to_string(shard_index), std::move(scheduler)) {}

ShardWorker::~ShardWorker() = default;

void ShardWorker::run_shard(double epoch) {
  use_serving_timer_slack();
  session_.begin_live(epoch, metrics_);
  serve_requests();
  session_.pump();
  session_.finalize();
  replies_.close();
}

// sjs-hot-path-root
void ShardWorker::serve_requests() {
  // The last park's length, ready count and notification mark, for the
  // wake-up counters (the first turn did not park).
  std::int64_t waited = 0;
  int ready = 0;
  std::uint64_t notified = 0;
  while (true) {
    session_.pump();
    session_.count_wakeup(waited, ready, notified);
    ShardRequest req;
    bool drained = false;
    while (true) {
      const auto st = requests_.try_pop(req);
      if (st == conc::PopStatus::kOk) {
        handle(req);
      } else {
        drained = (st == conc::PopStatus::kDrained);
        break;
      }
    }
    if (drained) break;
    session_.pump();
    // Park until the next simulated event is due or the acceptor signals.
    pollfd pfd{requests_.wake_fd(), POLLIN, 0};
    waited = session_.wait_us(poll_cap_us_);
    ready = wait_fds(&pfd, 1, waited);
    if ((pfd.revents & POLLIN) != 0) requests_.drain_wakeups();
    notified = session_.notified();
  }
}

void ShardWorker::handle(const ShardRequest& req) {
  Message m;
  m.seq = req.seq;
  m.ticket = req.ticket;
  switch (req.kind) {
    case ShardRequest::Kind::kSubmit:
      m.a = req.workload;
      m.b = req.rel_deadline;
      m.c = req.value;
      session_.submit(req.conn, req.gen, m);
      return;
    case ShardRequest::Kind::kCancel:
      session_.cancel(req.conn, req.gen, m);
      return;
    case ShardRequest::Kind::kQuery:
      session_.query(req.conn, req.gen, m);
      return;
  }
  SJS_CHECK_MSG(false, "unreachable: unknown ShardRequest kind");
}

void ShardWorker::send(int conn, std::uint64_t gen, const Message& msg) {
  ShardReply rep;
  rep.conn = conn;
  rep.gen = gen;
  rep.msg = msg;
  // The reply channel is sized for the steady state; it can only fill when
  // the acceptor stops draining for a while. Waiting here is deadlock-free:
  // the acceptor never blocks on our request channel (a full channel sheds),
  // so it always returns to its poll loop and consumes replies.
  while (true) {
    const conc::SendStatus st = replies_.try_send(rep);
    if (st == conc::SendStatus::kOk) return;
    SJS_CHECK_MSG(st != conc::SendStatus::kClosed,
                  "shard reply channel closed while serving");
    wait_fds(nullptr, 0, 1000);  // back off 1 ms, then retry
  }
}

}  // namespace sjs::serve
