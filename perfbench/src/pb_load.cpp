// pb_load — the benchmark's due-time open-loop load driver.
//
// One thread, one socket, busy-polling. Arrivals are drawn up front from
// `--seed` (Poisson at `--rate`, exponential workload p of mean
// `--mean-workload`, window U[kSlackLo, kSlackHi] × p / c_lo, value density
// U[1, kDensityHi]), so the
// offered stream depends on the seed alone and never on how fast the server
// answers. Every request is timed from the instant it was DUE, not from the
// loop turn that sent it, so a generator stall shows up as latency instead
// of hiding. pb_load never sleeps: a reply is timestamped when it
// arrives, not when pb_load's CPU wakes up.
//
// Failure accounting is per arrival: an arrival due after the connection
// closed, or still waiting on it when it closed, is recorded as lost (it
// still counts as attempted), and an arrival still unanswered when the
// linger period ends is recorded as unanswered.
//
// Every kQueryEvery-th arrival that is ACCEPTED gets a QUERY for its ticket,
// due the instant the ACCEPTED arrives.
//
// Output: `--out` receives kFields little-endian doubles per arrival (see
// Field); stdout receives one JSON object with the run's counters, the time
// pb_load spent outside its poll calls during the arrival window (its own
// busy time, to tell a generator bottleneck from a server one), the
// server's CPU time over the load window (summed
// /proc/<pid>/task/*/schedstat, every thread), and that CPU time sampled
// every kCpuBlock sent arrivals as [answered, cpu_s] pairs.
//
//   pb_load --port=P --rate=R --seconds=S [--seed=1] [--mean-workload=1]
//           [--c-lo=1] [--server-pid=PID] --out=FILE
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using sjs::serve::FrameDecoder;
using sjs::serve::Message;
using sjs::serve::MsgType;

/// The paper's job model (Sec. IV) and pb_load's fixed behaviour.
constexpr double kSlackLo = 1.05;     ///< window = U[kSlackLo, kSlackHi] x p / c_lo
constexpr double kSlackHi = 4.0;
constexpr double kDensityHi = 7.0;    ///< value density ~ U[1, kDensityHi]
constexpr double kLinger = 3.0;       ///< wall s to wait for answers after the window
constexpr std::size_t kQueryEvery = 4;
constexpr std::size_t kCpuBlock = 1000;  ///< sent arrivals per server CPU sample

/// Per-arrival record layout of the --out file (all doubles; NaN = never).
enum Field : std::size_t {
  kDue = 0,        ///< wall instant the SUBMIT was due
  kSent,           ///< wall instant it was handed to the socket
  kAckAt,          ///< wall instant its direct answer arrived
  kOutcome,        ///< Outcome code
  kReason,         ///< RejectReason / ErrorCode when applicable
  kRelease,        ///< ACCEPTED release stamp (virtual)
  kDoneAt,         ///< wall instant COMPLETED/EXPIRED arrived
  kDoneKind,       ///< 13 completed, 14 expired
  kDoneVirtual,    ///< reported completion/expiry instant (virtual)
  kValue,          ///< submitted value
  kQueryDue,       ///< wall instant the QUERY was due (= ACCEPTED arrival)
  kQueryAt,        ///< wall instant QUERY_REPLY arrived
  kFields
};

/// kOutcome codes; the protocol's reply types plus the two local verdicts.
constexpr double kUnanswered = 0.0;
constexpr double kLost = 30.0;

double mono_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds consumed so far by every live thread of `pid` (0 if pid <= 0
/// or /proc is unavailable). schedstat's first field is on-CPU nanoseconds.
double process_cpu_seconds(long pid) {
  if (pid <= 0) return 0.0;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return 0.0;
  double total_ns = 0.0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) total_ns += ns;
  }
  ::closedir(d);
  return total_ns * 1e-9;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

struct Arrival {
  double due = 0.0;
  double workload = 0.0;
  double rel_deadline = 0.0;
  double value = 0.0;
};

/// Query seqs carry this bit so they never collide with submit seqs.
constexpr std::uint64_t kQueryBit = 1ULL << 62;

}  // namespace

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_int("port", 0, "server port on 127.0.0.1");
  flags.add_double("rate", 1000.0, "offered SUBMITs per wall second");
  flags.add_double("seconds", 1.0, "length of the arrival window (wall s)");
  flags.add_int("seed", 1, "arrival stream seed");
  flags.add_double("mean-workload", 1.0, "mean of the exponential workload");
  flags.add_double("c-lo", 1.0, "admission floor the windows are sized to");
  flags.add_int("server-pid", 0, "process whose CPU time is sampled");
  flags.add_string("out", "", "per-arrival record file (required)");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) std::fprintf(stderr, "%s\n", flags.error().c_str());
    return flags.error().empty() ? 0 : 1;
  }
  const double rate = flags.get_double("rate");
  const double seconds = flags.get_double("seconds");
  const double mean_workload = flags.get_double("mean-workload");
  const std::string out_path = flags.get_string("out");
  if (!(rate > 0.0) || !(seconds > 0.0) || !(mean_workload > 0.0) || out_path.empty()) {
    std::fprintf(stderr, "need rate > 0, seconds > 0, mean-workload > 0, --out\n");
    return 1;
  }

  // The whole arrival stream, drawn before the first send.
  sjs::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const double c_lo = flags.get_double("c-lo");
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential_rate(rate); t < seconds;
       t += rng.exponential_rate(rate)) {
    Arrival a;
    a.due = t;
    a.workload = rng.exponential_mean(mean_workload);
    a.rel_deadline = rng.uniform(kSlackLo, kSlackHi) * a.workload / c_lo;
    a.value = a.workload * rng.uniform(1.0, kDensityHi);
    arrivals.push_back(a);
  }
  const std::size_t n = arrivals.size();
  std::vector<double> rec(n * kFields, std::nan(""));
  const auto at = [&](std::size_t i, Field f) -> double& {
    return rec[i * kFields + f];
  };

  int fd = -1;
  try {
    fd = connect_loopback(static_cast<int>(flags.get_int("port")));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_load: %s\n", e.what());
    return 1;
  }
  FrameDecoder decoder;
  std::vector<std::uint8_t> obuf;
  std::size_t opos = 0;
  bool closed = false;
  bool swept = false;  // arrivals waiting on the closed connection marked lost

  const long server_pid = flags.get_int("server-pid");
  const double t0 = mono_now() + 0.02;
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i].due += t0;
    at(i, kDue) = arrivals[i].due;
    at(i, kValue) = arrivals[i].value;
    at(i, kOutcome) = kUnanswered;
  }
  const double window_end = t0 + seconds;
  const double hard_end = window_end + kLinger;

  std::size_t next = 0;            // next arrival to send
  std::size_t answered = 0;        // arrivals with a direct answer
  std::size_t resolved = 0;        // accepted arrivals with COMPLETED/EXPIRED
  std::size_t accepted = 0;
  std::size_t queries_sent = 0;
  std::size_t queries_answered = 0;
  double cpu_start = 0.0;
  double cpu_end = 0.0;
  double cpu_end_at = 0.0;
  bool cpu_started = false;
  bool cpu_stopped = false;
  std::vector<std::pair<std::size_t, double>> cpu_samples;  // (answered, cpu s)
  cpu_samples.reserve(n / kCpuBlock + 2);
  double polling_s = 0.0;  // arrival window time spent inside ppoll

  std::uint8_t rbuf[1 << 16];
  while (true) {
    const double now = mono_now();
    if (!cpu_started && now >= t0) {
      cpu_start = process_cpu_seconds(server_pid);
      cpu_samples.emplace_back(answered, cpu_start);
      cpu_started = true;
    }
    // Emit every arrival whose due instant has passed.
    while (next < n && arrivals[next].due <= now) {
      const std::size_t i = next++;
      if (closed) {
        at(i, kOutcome) = kLost;
        ++answered;
        continue;
      }
      Message m;
      m.type = MsgType::kSubmit;
      m.seq = i + 1;
      m.a = arrivals[i].workload;
      m.b = arrivals[i].rel_deadline;
      m.c = arrivals[i].value;
      sjs::serve::append_frame(obuf, m);
      at(i, kSent) = now;
      if (next % kCpuBlock == 0 && next < n) {
        cpu_samples.emplace_back(answered, process_cpu_seconds(server_pid));
      }
    }
    const bool all_done = next >= n && answered == n && resolved == accepted &&
                          queries_answered == queries_sent;
    if (cpu_started && !cpu_stopped && next >= n && answered == n) {
      cpu_end = process_cpu_seconds(server_pid);
      cpu_end_at = mono_now();
      cpu_samples.emplace_back(answered, cpu_end);
      cpu_stopped = true;
    }
    if (all_done || now >= hard_end) break;

    pollfd pfd{closed ? -1 : fd, 0, 0};
    if (!closed) {
      // Write eagerly; POLLOUT only while the kernel buffer is full.
      while (opos < obuf.size()) {
        const ssize_t w = ::send(fd, obuf.data() + opos, obuf.size() - opos, MSG_NOSIGNAL);
        if (w > 0) {
          opos += static_cast<std::size_t>(w);
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            closed = true;
          }
          break;
        }
      }
      if (opos == obuf.size()) {
        obuf.clear();
        opos = 0;
      }
      pfd.events = static_cast<short>(POLLIN | (opos < obuf.size() ? POLLOUT : 0));
    }
    const timespec no_wait{};
    const double poll_start = mono_now();
    ::ppoll(&pfd, 1, &no_wait, nullptr);
    if (poll_start >= t0 && poll_start < window_end) {
      polling_s += std::min(mono_now(), window_end) - poll_start;
    }

    if (!closed && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      while (true) {
        const ssize_t r = ::recv(fd, rbuf, sizeof(rbuf), 0);
        if (r > 0) {
          decoder.feed(rbuf, static_cast<std::size_t>(r));
          if (r < static_cast<ssize_t>(sizeof(rbuf))) break;
        } else {
          if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
            closed = true;
          }
          break;
        }
      }
      const double t = mono_now();
      Message m;
      while (decoder.next(m) == FrameDecoder::Status::kOk) {
        if (m.seq & kQueryBit) {
          if (m.type == MsgType::kQueryReply) {
            const std::size_t i = m.seq & ~kQueryBit;
            if (i < n && std::isnan(at(i, kQueryAt))) {
              at(i, kQueryAt) = t;
              ++queries_answered;
            }
          }
          continue;
        }
        if (m.seq == 0 || m.seq > n) continue;
        const std::size_t i = m.seq - 1;
        switch (m.type) {
          case MsgType::kAccepted:
          case MsgType::kRejected:
          case MsgType::kShed:
          case MsgType::kError:
            if (at(i, kOutcome) != kUnanswered) break;
            at(i, kAckAt) = t;
            at(i, kOutcome) = static_cast<double>(m.type);
            at(i, kReason) = static_cast<double>(m.code);
            ++answered;
            if (m.type == MsgType::kAccepted) {
              if (accepted++ % kQueryEvery == 0) {
                Message q;
                q.type = MsgType::kQuery;
                q.seq = kQueryBit | i;
                q.ticket = m.ticket;
                sjs::serve::append_frame(obuf, q);
                at(i, kQueryDue) = t;
                ++queries_sent;
              }
              at(i, kRelease) = m.a;
            }
            break;
          case MsgType::kCompleted:
          case MsgType::kExpired:
            if (at(i, kOutcome) != static_cast<double>(MsgType::kAccepted) ||
                !std::isnan(at(i, kDoneAt))) {
              break;
            }
            at(i, kDoneAt) = t;
            at(i, kDoneKind) = static_cast<double>(m.type);
            at(i, kDoneVirtual) = m.b;
            ++resolved;
            break;
          default:
            break;
        }
      }
    }
    // A closed connection loses every arrival still waiting on it (later
    // arrivals are marked lost as they fall due).
    if (closed && !swept) {
      swept = true;
      for (std::size_t i = 0; i < next; ++i) {
        if (at(i, kOutcome) == kUnanswered) {
          at(i, kOutcome) = kLost;
          ++answered;
        }
      }
    }
  }
  if (!cpu_stopped) {
    cpu_end = process_cpu_seconds(server_pid);
    cpu_end_at = mono_now();
    cpu_samples.emplace_back(answered, cpu_end);
  }
  ::close(fd);

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (!out || std::fwrite(rec.data(), sizeof(double), rec.size(), out) != rec.size() ||
      std::fclose(out) != 0) {
    std::fprintf(stderr, "pb_load: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("{\"arrivals\": %zu, \"fields\": %zu, \"t0\": %.9f, "
              "\"window_s\": %.9f, \"server_cpu_s\": %.9f, "
              "\"cpu_window_s\": %.9f, \"gen_busy_s\": %.9f, "
              "\"queries_sent\": %zu, \"queries_answered\": %zu, \"cpu_samples\": [",
              n, static_cast<std::size_t>(kFields), t0, seconds,
              cpu_end - cpu_start, cpu_end_at - t0, seconds - polling_s,
              queries_sent, queries_answered);
  for (std::size_t k = 0; k < cpu_samples.size(); ++k) {
    std::printf("%s[%zu, %.9f]", k ? ", " : "", cpu_samples[k].first, cpu_samples[k].second);
  }
  std::printf("]}\n");
  return 0;
}
