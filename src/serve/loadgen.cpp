#include "serve/loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs::serve {

namespace {

struct PendingSubmit {
  double sent_at = 0.0;   // wall clock reading at submit
  double value = 0.0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("loadgen: connect to 127.0.0.1:" +
                             std::to_string(port) + " failed: " +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Everything the generator tracks for one socket. The generator stays
/// single-threaded: one poll set covers every connection, so adding
/// connections exercises the SERVER's concurrency, not the client's.
struct Conn {
  int fd = -1;
  bool closed = false;
  FrameDecoder decoder;
  std::vector<std::uint8_t> obuf;  // unsent output, opos = sent prefix
  std::size_t opos = 0;
  std::map<std::uint64_t, PendingSubmit> by_seq;     // awaiting ack
  std::map<std::uint64_t, PendingSubmit> by_ticket;  // awaiting completion
  std::vector<double> ack_lat;
  std::vector<double> done_lat;
  ConnReport report;
};

}  // namespace

LoadReport run_load(const LoadGenConfig& config, Clock& clock) {
  SJS_CHECK_MSG(config.connections >= 1, "loadgen needs >= 1 connection");
  const auto nconn = static_cast<std::size_t>(config.connections);
  std::vector<Conn> conns(nconn);
  for (Conn& c : conns) c.fd = connect_loopback(config.port);

  Rng rng(config.seed);
  LoadReport report;

  const double start = clock.now();
  const double submit_end = start + config.duration_s;
  const double hard_end = submit_end + config.linger_s;
  double next_submit = start + rng.exponential_rate(config.arrival_rate);
  std::uint64_t next_seq = 1;
  std::uint64_t submit_index = 0;  // round-robin cursor over connections
  bool drain_sent = false;
  std::vector<AcceptStamp> accepts;     // every conn: one server clock
  std::vector<CompletionStamp> dones;

  const auto open_count = [&] {
    std::size_t n = 0;
    for (const Conn& c : conns) n += c.closed ? 0 : 1;
    return n;
  };
  const auto settled = [&] {
    // drain acked, every completion resolved, every queued byte flushed.
    if (!report.drain_acked) return false;
    for (const Conn& c : conns) {
      if (c.closed) continue;
      if (!c.by_ticket.empty() || c.opos != c.obuf.size()) return false;
    }
    return true;
  };

  while (open_count() > 0) {
    const double now = clock.now();
    if (now >= hard_end) break;
    // Open-loop pacing: emit every submission whose arrival instant has
    // passed, regardless of what the server answered so far. Submissions
    // round-robin over the connections.
    while (!drain_sent && now >= next_submit && next_submit < submit_end) {
      Conn& c = conns[submit_index++ % nconn];
      Message m;
      m.type = MsgType::kSubmit;
      m.seq = next_seq++;
      m.a = rng.exponential_mean(config.mean_workload);
      const double slack = rng.uniform(config.slack_min, config.slack_max);
      m.b = slack * m.a / config.c_lo;
      m.c = m.a * rng.uniform(1.0, config.k);  // density in [1, k]
      next_submit += rng.exponential_rate(config.arrival_rate);
      if (c.closed) continue;  // its share of arrivals is simply lost
      append_frame(c.obuf, m);
      c.by_seq[m.seq] = PendingSubmit{now, m.c};
      ++c.report.submitted;
      report.submitted_value += m.c;
    }
    if (config.send_drain && !drain_sent && now >= submit_end) {
      Message m;
      m.type = MsgType::kDrain;
      m.seq = next_seq++;
      for (Conn& c : conns) {  // first open connection carries the DRAIN
        if (c.closed) continue;
        append_frame(c.obuf, m);
        break;
      }
      drain_sent = true;
    }

    // Poll until the next submission is due (or briefly, when idle).
    double wait_s = config.send_drain || drain_sent
                        ? 0.01
                        : std::max(0.0, next_submit - now);
    if (next_submit >= submit_end && !config.send_drain) wait_s = 0.01;
    wait_s = std::min(wait_s, std::max(0.0, hard_end - now));
    const auto timeout_us =
        static_cast<std::int64_t>(std::ceil(std::min(wait_s, 0.05) * 1e6));
    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfd_conn;
    pfds.reserve(nconn);
    for (std::size_t i = 0; i < nconn; ++i) {
      Conn& c = conns[i];
      if (c.closed) continue;
      pollfd pfd{c.fd, POLLIN, 0};
      if (c.opos < c.obuf.size()) pfd.events |= POLLOUT;
      pfds.push_back(pfd);
      pfd_conn.push_back(i);
    }
    wait_fds(pfds.data(), pfds.size(), timeout_us);

    for (std::size_t p = 0; p < pfds.size(); ++p) {
      Conn& c = conns[pfd_conn[p]];
      const short revents = pfds[p].revents;
      if (revents & POLLOUT) {
        while (c.opos < c.obuf.size()) {
          const ssize_t n = ::send(c.fd, c.obuf.data() + c.opos,
                                   c.obuf.size() - c.opos, MSG_NOSIGNAL);
          if (n > 0) {
            c.opos += static_cast<std::size_t>(n);
          } else {
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              c.closed = true;
            }
            break;
          }
        }
        if (c.opos == c.obuf.size()) {
          c.obuf.clear();
          c.opos = 0;
        }
      }
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        std::uint8_t rbuf[4096];
        while (true) {
          const ssize_t n = ::recv(c.fd, rbuf, sizeof(rbuf), 0);
          if (n > 0) {
            c.decoder.feed(rbuf, static_cast<std::size_t>(n));
            if (n < static_cast<ssize_t>(sizeof(rbuf))) break;
          } else if (n == 0) {
            c.closed = true;
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
              c.closed = true;
            }
            break;
          }
        }
        Message m;
        while (c.decoder.next(m) == FrameDecoder::Status::kOk) {
          const double t = clock.now();
          switch (m.type) {
            case MsgType::kAccepted: {
              const auto it = c.by_seq.find(m.seq);
              if (it != c.by_seq.end()) {
                c.ack_lat.push_back(t - it->second.sent_at);
                accepts.push_back(AcceptStamp{it->second.sent_at, t, m.a});
                report.admitted_value += it->second.value;
                c.by_ticket[m.ticket] = it->second;
                c.by_seq.erase(it);
              }
              ++c.report.accepted;
              break;
            }
            case MsgType::kRejected: {
              const auto it = c.by_seq.find(m.seq);
              if (it != c.by_seq.end()) {
                c.ack_lat.push_back(t - it->second.sent_at);
                c.by_seq.erase(it);
              }
              ++c.report.rejected;
              break;
            }
            case MsgType::kShed: {
              const auto it = c.by_seq.find(m.seq);
              if (it != c.by_seq.end()) {
                c.ack_lat.push_back(t - it->second.sent_at);
                c.by_seq.erase(it);
              }
              ++c.report.shed;
              break;
            }
            case MsgType::kCompleted: {
              const auto it = c.by_ticket.find(m.ticket);
              if (it != c.by_ticket.end()) {
                c.done_lat.push_back(t - it->second.sent_at);
                c.by_ticket.erase(it);
              }
              dones.push_back(CompletionStamp{t, m.b});
              ++c.report.completed;
              report.completed_value += m.a;
              break;
            }
            case MsgType::kExpired: {
              c.by_ticket.erase(m.ticket);
              ++c.report.expired;
              break;
            }
            case MsgType::kDraining:
              report.drain_acked = true;
              break;
            default:
              break;  // kQueryReply/kStatsReply/kCancelled: not used here
          }
        }
      }
    }
    // After a drain ack, the server resolves everything immediately; once no
    // completions are outstanding there is nothing left to wait for.
    if (settled()) break;
  }
  for (Conn& c : conns) ::close(c.fd);

  std::vector<std::vector<double>> ack_samples;
  std::vector<std::vector<double>> done_samples;
  for (Conn& c : conns) {
    c.report.ack_latency = summarize(c.ack_lat);
    c.report.completion_latency = summarize(c.done_lat);
    report.submitted += c.report.submitted;
    report.accepted += c.report.accepted;
    report.rejected += c.report.rejected;
    report.shed += c.report.shed;
    report.completed += c.report.completed;
    report.expired += c.report.expired;
    ack_samples.push_back(std::move(c.ack_lat));
    done_samples.push_back(std::move(c.done_lat));
    report.connections.push_back(std::move(c.report));
  }
  report.ack_latency = merge_latency_samples(ack_samples);
  report.completion_latency = merge_latency_samples(done_samples);
  report.notify_lag = summarize(notification_lags(accepts, dones));
  return report;
}

std::vector<double> notification_lags(
    const std::vector<AcceptStamp>& accepted,
    const std::vector<CompletionStamp>& completions) {
  std::vector<double> lags;
  const std::size_t n = accepted.size();
  if (n < 2) return lags;
  const auto round_trip = [](const AcceptStamp& s) {
    return s.received_at - s.sent_at;
  };
  const auto midpoint = [](const AcceptStamp& s) {
    return 0.5 * (s.sent_at + s.received_at);
  };
  // The stamp with the shortest round trip in accepted[first, last).
  const auto anchor = [&](std::size_t first, std::size_t last) {
    std::size_t best = first;
    for (std::size_t i = first + 1; i < last; ++i) {
      if (round_trip(accepted[i]) < round_trip(accepted[best])) best = i;
    }
    return accepted[best];
  };
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  const AcceptStamp a = anchor(0, quarter);
  const AcceptStamp b = anchor(n - quarter, n);
  const double wall_span = midpoint(b) - midpoint(a);
  if (!(b.release > a.release) || !(wall_span > 0.0)) return lags;
  const double accel = (b.release - a.release) / wall_span;
  double epoch = std::numeric_limits<double>::infinity();
  for (const AcceptStamp& s : accepted) {
    epoch = std::min(epoch, s.received_at - s.release / accel);
  }
  lags.reserve(completions.size());
  for (const CompletionStamp& c : completions) {
    lags.push_back(c.received_at - (epoch + c.completed_at / accel));
  }
  return lags;
}

Summary merge_latency_samples(
    const std::vector<std::vector<double>>& per_conn) {
  std::size_t total = 0;
  for (const auto& samples : per_conn) total += samples.size();
  std::vector<double> pooled;
  pooled.reserve(total);
  for (const auto& samples : per_conn) {
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  return summarize(std::move(pooled));
}

namespace {

void append_latencies(std::ostringstream& os, const char* label,
                      const Summary& s) {
  if (s.count == 0) return;
  os << "\n" << label << " (ms): p50 " << s.median * 1e3 << ", p95 "
     << s.p95 * 1e3 << ", p99 " << s.p99 * 1e3 << ", max " << s.max * 1e3;
}

}  // namespace

std::string LoadReport::to_string() const {
  std::ostringstream os;
  os << "submitted " << submitted << " (value " << submitted_value << "), "
     << "accepted " << accepted << ", rejected " << rejected << ", shed "
     << shed << ", completed " << completed << ", expired " << expired
     << "\ncaptured value: " << completed_value << "/" << admitted_value
     << " admitted (" << captured_fraction() * 100.0 << "%)";
  if (ack_latency.count > 0) {
    os << "\nack latency (ms): p50 " << ack_latency.median * 1e3 << ", p95 "
       << ack_latency.p95 * 1e3 << ", p99 " << ack_latency.p99 * 1e3
       << ", max " << ack_latency.max * 1e3;
  }
  if (completion_latency.count > 0) {
    os << "\ncompletion latency (ms): p50 " << completion_latency.median * 1e3
       << ", p95 " << completion_latency.p95 * 1e3 << ", p99 "
       << completion_latency.p99 * 1e3;
  }
  if (notify_lag.count > 0) {
    os << "\nnotification lag (ms): p50 " << notify_lag.median * 1e3
       << ", p99 " << notify_lag.p99 * 1e3;
  }
  if (connections.size() > 1) {
    for (std::size_t i = 0; i < connections.size(); ++i) {
      const ConnReport& c = connections[i];
      os << "\nconn " << i << ": submitted " << c.submitted << ", accepted "
         << c.accepted << ", rejected " << c.rejected << ", shed " << c.shed
         << ", completed " << c.completed << ", expired " << c.expired;
      append_latencies(os, "  ack latency", c.ack_latency);
      append_latencies(os, "  completion latency", c.completion_latency);
    }
  }
  return os.str();
}

}  // namespace sjs::serve
