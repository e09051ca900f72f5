// sjs_load — open-loop Poisson load generator for sjs_serve.
//
//   sjs_load --port=PORT [--duration=2] [--rate=200] [--mean-workload=0.02]
//            [--c-lo=1] [--slack-min=1.05] [--slack-max=4] [--k=7]
//            [--seed=1] [--drain] [--linger=2] [--connections=1]
//
// Submits jobs at Poisson arrival instants regardless of server responses
// (open loop — the regime where SHED backpressure is actually exercised),
// then reports admission/completion counts, captured-value percentage,
// ack/completion latency percentiles, and the notification lag p50/p99: how
// long after the server's clock reached a job's completion instant its
// COMPLETED arrived (serve::notification_lags estimates the server's clock
// from the ACCEPTED stamps). With --connections=N the arrival
// stream round-robins over N sockets (one poll set, still single-threaded)
// and the report adds per-connection counts and percentiles — the shape
// that exercises sjs_serve --shards=N. With --drain it asks the server to
// drain after the last submission and waits for the final notifications.
#include <cstdio>

#include "serve/clock.hpp"
#include "serve/loadgen.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_int("port", 0, "sjs_serve port (required)");
  flags.add_double("duration", 2.0, "wall seconds of submission activity");
  flags.add_double("rate", 200.0, "mean submissions per wall second");
  flags.add_double("mean-workload", 0.02,
                   "mean job workload in virtual capacity-seconds");
  flags.add_double("c-lo", 1.0, "band floor assumed for deadline windows");
  flags.add_double("slack-min", 1.05, "deadline window multiplier lower bound");
  flags.add_double("slack-max", 4.0, "deadline window multiplier upper bound");
  flags.add_double("k", 7.0, "importance ratio: value density ~ U[1, k]");
  flags.add_int("seed", 1, "random seed");
  flags.add_bool("drain", false, "request a server drain when done");
  flags.add_double("linger", 2.0,
                   "wall seconds to wait for notifications after submitting");
  flags.add_int("connections", 1,
                "sockets to open; submissions round-robin over them");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return 1;
    }
    return 0;
  }
  if (flags.get_int("port") <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return 1;
  }
  if (!flags.require_positive("duration") ||
      !flags.require_positive("rate") ||
      !flags.require_positive("mean-workload") ||
      !flags.require_positive("c-lo") ||
      !flags.require_positive("connections")) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }

  sjs::serve::LoadGenConfig config;
  config.port = static_cast<int>(flags.get_int("port"));
  config.duration_s = flags.get_double("duration");
  config.linger_s = flags.get_double("linger");
  config.arrival_rate = flags.get_double("rate");
  config.mean_workload = flags.get_double("mean-workload");
  config.c_lo = flags.get_double("c-lo");
  config.slack_min = flags.get_double("slack-min");
  config.slack_max = flags.get_double("slack-max");
  config.k = flags.get_double("k");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.send_drain = flags.get_bool("drain");
  config.connections = static_cast<int>(flags.get_int("connections"));

  sjs::serve::SystemClock clock;
  try {
    const auto report = sjs::serve::run_load(config, clock);
    std::printf("%s\n", report.to_string().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
