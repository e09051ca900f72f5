#include "serve/sharded_server.hpp"

#include <algorithm>

#include "conc/shard_hash.hpp"
#include "serve/event_loop.hpp"
#include "serve/session.hpp"
#include "util/logging.hpp"

namespace sjs::serve {

ShardedAdmissionServer::ShardedAdmissionServer(ServerConfig config,
                                               SchedulerFactory make_scheduler,
                                               Clock& clock,
                                               obs::MetricsRegistry* metrics)
    : FrontEnd(clock, config.max_write_buffer, metrics),
      config_(std::move(config)),
      make_scheduler_(std::move(make_scheduler)),
      bridge_(clock, config_.accel) {
  SJS_CHECK_MSG(config_.shards >= 1, "sharded server needs >= 1 shard");
  SJS_CHECK_MSG(static_cast<bool>(make_scheduler_),
                "sharded server needs a scheduler factory");
}

ShardedAdmissionServer::~ShardedAdmissionServer() {
  // A still-serving plane must not hang the destructor: close the inputs so
  // every shard body exits, and keep consuming replies so no shard can wait
  // on a full reply channel meanwhile. ShardSet's destructor then joins.
  // A start() that failed before spawning left no shard to wait for.
  for (auto& w : workers_) w->requests().close();
  while (threads_.size() > 0 && !all_replies_drained()) {
    drain_replies();
    wait_fds(nullptr, 0, 1000);
  }
}

int ShardedAdmissionServer::start() {
  SJS_CHECK_MSG(workers_.empty(), "ShardedAdmissionServer::start called twice");
  workers_.reserve(config_.shards);
  for (std::size_t k = 0; k < config_.shards; ++k) {
    workers_.push_back(std::make_unique<ShardWorker>(
        config_, k, make_scheduler_(), *clock_, metrics_));
    loop().watch(workers_[k]->replies().wake_fd());
  }
  const int port = listen(config_.port);
  // Bound: only now may the shards truncate their journal directories.
  for (auto& w : workers_) w->open_journal();
  // ONE clock read anchors the whole plane: the acceptor's bridge and every
  // shard's bridge share this epoch, so virtual time is a single timeline.
  const double epoch = clock_->now();
  bridge_.start_at(epoch);
  threads_.spawn(config_.shards,
                 [this, epoch](std::size_t k) {
                   workers_[k]->run_shard(epoch);
                 });
  return port;
}

bool ShardedAdmissionServer::serve(std::int64_t max_wait_us) {
  drain_replies();
  loop().poll_once(draining() ? capped_wait_us(max_wait_us, kDrainWaitUs)
                              : max_wait_us);
  drain_replies();
  if (!draining() || !all_replies_drained()) return false;
  // Every shard has finalised and closed its reply channel, and every reply
  // has been shipped or dropped — joining cannot block.
  threads_.join();
  joined_ = true;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    const ShardWorker& w = *workers_[k];
    stats_.virtual_now = std::max(stats_.virtual_now, w.stats().virtual_now);
    if (journal_error_.empty() && !w.journal_error().empty()) {
      journal_error_ = "shard " + std::to_string(k) + ": " + w.journal_error();
    }
  }
  set_gauge(kGaugeInFlightPeak, static_cast<double>(in_flight_peak_));
  return true;
}

void ShardedAdmissionServer::on_drain() {
  for (auto& w : workers_) w->requests().close();
}

StatsBody ShardedAdmissionServer::stats() const {
  StatsBody s = stats_;
  if (!joined_) s.virtual_now = bridge_.virtual_now();
  return s;
}

void ShardedAdmissionServer::drain_replies() {
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    auto& ch = workers_[k]->replies();
    ch.drain_pending_wakeups();
    ShardReply rep;
    while (ch.try_pop(rep) == conc::PopStatus::kOk) {
      dispatch_reply(k, rep);
    }
  }
}

bool ShardedAdmissionServer::all_replies_drained() const {
  for (const auto& w : workers_) {
    if (!w->replies().drained()) return false;
  }
  return true;
}

void ShardedAdmissionServer::dispatch_reply(std::size_t shard,
                                            const ShardReply& rep) {
  const Message& m = rep.msg;
  switch (m.type) {
    case MsgType::kAccepted:
      ++stats_.accepted;
      stats_.admitted_value += m.c;  // the session's admitted value
      ++stats_.in_flight;
      in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
      count(kCtrAccepted);
      break;
    case MsgType::kRejected:
      ++stats_.rejected;
      count(kCtrRejected);
      break;
    case MsgType::kShed:  // per-shard max_in_flight backpressure
      ++stats_.shed;
      count(kCtrShed);
      break;
    case MsgType::kCompleted:
      ++stats_.completed;
      stats_.completed_value += m.a;
      --stats_.in_flight;
      count(kCtrCompleted);
      break;
    case MsgType::kExpired:
      ++stats_.expired;
      --stats_.in_flight;
      count(kCtrExpired);
      break;
    case MsgType::kCancelled:
      // The shard suppresses the cancellation's internal expiry, so this is
      // the only in-flight decrement the acceptor will see for the job.
      ++stats_.cancelled;
      --stats_.in_flight;
      count(kCtrCancelled);
      break;
    case MsgType::kError:
      // The shard's session failed a journal write and is draining; the
      // plane follows (protocol.hpp: kJournalFailed means draining).
      if (m.code == static_cast<std::uint8_t>(ErrorCode::kJournalFailed)) {
        if (journal_error_.empty()) {
          journal_error_ =
              "shard " + std::to_string(shard) + ": journal append failed";
        }
        request_drain();
      }
      break;
    default:  // kCancelFailed, kQueryReply: no aggregate effect
      break;
  }
  send_to(rep.conn, rep.gen, m);
}

void ShardedAdmissionServer::on_other_wake(int fd) {
  for (auto& w : workers_) {
    if (w->replies().wake_fd() == fd) {
      // Unconditional: the fd fired, and leaving it readable would spin the
      // level-triggered poll even while the pending flag reads clear.
      w->replies().drain_wakeups();
      return;
    }
  }
}

void ShardedAdmissionServer::on_request(int conn, const Message& m) {
  if (m.type != MsgType::kSubmit) {
    forward_by_ticket(conn, m);
    return;
  }
  ++stats_.submitted;
  count(kCtrSubmitted);
  Message r;
  r.seq = m.seq;
  if (draining()) {
    ++stats_.rejected;
    count(kCtrRejected);
    r.type = MsgType::kRejected;
    r.code = static_cast<std::uint8_t>(RejectReason::kDraining);
    reply(conn, r);
    return;
  }
  // The next dense ticket decides the shard. Only a delivered request
  // consumes it: a full channel sheds and the ticket goes to the next
  // submission, keeping the ticket→shard map a pure function of the
  // forwarded-submission index.
  ShardRequest req;
  req.kind = ShardRequest::Kind::kSubmit;
  req.conn = conn;
  req.gen = gen_of(conn);
  req.seq = m.seq;
  req.ticket = next_ticket_;
  req.workload = m.a;
  req.rel_deadline = m.b;
  req.value = m.c;
  auto& ch = workers_[conc::shard_of(req.ticket, workers_.size())]->requests();
  if (ch.try_send(req) != conc::SendStatus::kOk) {  // kFull (or drain race)
    ++stats_.shed;
    count(kCtrShed);
    r.type = MsgType::kShed;
    reply(conn, r);
    return;
  }
  ++next_ticket_;
}

void ShardedAdmissionServer::forward_by_ticket(int conn, const Message& m) {
  const bool known = m.ticket < next_ticket_;
  bool forwarded = false;
  if (known) {
    auto& ch = workers_[conc::shard_of(m.ticket, workers_.size())]->requests();
    ShardRequest req;
    req.kind = m.type == MsgType::kCancel ? ShardRequest::Kind::kCancel
                                          : ShardRequest::Kind::kQuery;
    req.conn = conn;
    req.gen = gen_of(conn);
    req.seq = m.seq;
    req.ticket = m.ticket;
    forwarded = ch.try_send(req) == conc::SendStatus::kOk;
  }
  if (forwarded) return;
  // Unknown ticket, full channel, or draining: answer locally — a cancel
  // honestly fails, a query reads as unknown.
  Message r;
  r.seq = m.seq;
  r.ticket = m.ticket;
  if (m.type == MsgType::kCancel) {
    r.type = MsgType::kCancelFailed;
  } else {
    r.type = MsgType::kQueryReply;
    r.code = static_cast<std::uint8_t>(JobState::kUnknown);
  }
  reply(conn, r);
}

}  // namespace sjs::serve
