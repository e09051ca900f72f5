#include "serve/front_end.hpp"

#include <unistd.h>

#include <algorithm>

#include "serve/session.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

FrontEnd::FrontEnd(Clock& clock, std::size_t max_write_buffer,
                   obs::MetricsRegistry* metrics)
    : clock_(&clock), metrics_(metrics), loop_(*this) {
  if (metrics_) shard_ = &metrics_->local();
  loop_.set_max_write_buffer(max_write_buffer);
}

FrontEnd::~FrontEnd() = default;

int FrontEnd::listen(int port) {
  SJS_CHECK_MSG(!started_, "serving front end started twice");
  const int bound = loop_.listen_loopback(port);
  started_ = true;
  return bound;
}

void FrontEnd::watch_shutdown_fd(int fd) {
  util::append(shutdown_fds_, fd);
  loop_.watch(fd);
}

bool FrontEnd::step(int max_wait_ms) {
  SJS_CHECK_MSG(started_, "serving front end stepped before start()");
  if (finished_) return false;
  if (!slack_set_) {
    // The thread that steps the front end is its serving thread.
    use_serving_timer_slack();
    slack_set_ = true;
  }
  const std::int64_t max_wait_us =
      max_wait_ms < 0 ? -1 : std::int64_t{max_wait_ms} * 1000;
  if (!served_) served_ = serve(max_wait_us);
  if (served_) {
    // Flush queued notifications/replies, then shut everything down. Only
    // output a socket refused needs a wait for POLLOUT, and a peer that
    // stops reading cannot wedge the drain: bounded spins, then drop.
    loop_.flush();
    if (loop_.writes_pending() && loop_.open_conn_count() > 0 &&
        flush_spins_ < 200) {
      ++flush_spins_;
      loop_.poll_once(capped_wait_us(max_wait_us, kDrainWaitUs));
    } else {
      set_gauge(kGaugeWriteBufPeak,
                static_cast<double>(loop_.write_buffer_peak()));
      loop_.shutdown();
      finished_ = true;
    }
  }
  return !finished_;
}

void FrontEnd::run() {
  while (step()) {
  }
}

void FrontEnd::request_drain() {
  if (draining_) return;
  draining_ = true;
  loop_.stop_listening();
  on_drain();
}

void FrontEnd::on_accept(int conn) {
  // Per-connection slot setup on accept, not per-request steady state; the
  // tables grow to the concurrent-connection high-water. reset() (not
  // re-assignment) keeps the recycled decoder's buffer capacity.
  const auto i = static_cast<std::size_t>(conn);
  util::grow_to_index(decoders_, i);
  util::grow_to_index_fill(conn_gens_, i, std::uint64_t{0});
  decoders_[i].reset();
  count(kCtrConnections);
}

void FrontEnd::on_close(int conn, bool overflow) {
  ++conn_gens_[static_cast<std::size_t>(conn)];
  if (overflow) count(kCtrOverflows);
}

void FrontEnd::on_wake(int fd) {
  for (const int sfd : shutdown_fds_) {
    if (fd == sfd) {
      // Signal self-pipe: drain it and start a graceful shutdown.
      char buf[64];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
      request_drain();
      return;
    }
  }
  on_other_wake(fd);
}

void FrontEnd::on_data(int conn, const std::uint8_t* data, std::size_t size) {
  FrameDecoder& dec = decoders_[static_cast<std::size_t>(conn)];
  dec.feed(data, size);
  Message m;
  while (true) {
    const FrameDecoder::Status st = dec.next(m);
    if (st == FrameDecoder::Status::kNeedMore) return;
    if (st == FrameDecoder::Status::kMalformed) {
      count(kCtrMalformed);
      Message err;
      err.type = MsgType::kError;
      err.code = static_cast<std::uint8_t>(ErrorCode::kMalformedFrame);
      reply(conn, err);
      loop_.close_conn(conn);
      return;
    }
    handle_message(conn, m);
    if (!loop_.conn_open(conn)) return;
  }
}

void FrontEnd::handle_message(int conn, const Message& m) {
  switch (m.type) {
    case MsgType::kSubmit:
    case MsgType::kCancel:
    case MsgType::kQuery:
      on_request(conn, m);
      return;
    case MsgType::kStats: {
      Message r;
      r.type = MsgType::kStatsReply;
      r.seq = m.seq;
      r.stats = stats();
      reply(conn, r);
      return;
    }
    case MsgType::kDrain: {
      Message r;
      r.type = MsgType::kDraining;
      r.seq = m.seq;
      reply(conn, r);
      request_drain();
      return;
    }
    default: {
      Message err;
      err.type = MsgType::kError;
      err.seq = m.seq;
      err.code = static_cast<std::uint8_t>(ErrorCode::kNotARequest);
      reply(conn, err);
      loop_.close_conn(conn);
      return;
    }
  }
}

void FrontEnd::send_to(int conn, std::uint64_t gen, const Message& m) {
  if (conn >= 0 && static_cast<std::size_t>(conn) < conn_gens_.size() &&
      loop_.conn_open(conn) &&
      conn_gens_[static_cast<std::size_t>(conn)] == gen) {
    reply(conn, m);
  }
}

void FrontEnd::reply(int conn, const Message& m) {
  // Stack-encoded frame: the per-reply path allocates nothing (the loop's
  // send buffer retains its capacity between requests).
  std::uint8_t frame[kMaxFrame];
  const std::size_t n = encode_frame_into(frame, m);
  loop_.send(conn, frame, n);
}

}  // namespace sjs::serve
