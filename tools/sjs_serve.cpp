// sjs_serve — real-time job-admission daemon (docs/serving.md).
//
// Listens on loopback for length-prefixed protocol frames, admits jobs into
// a live sim::Engine driven by the chosen scheduler against wall-clock time
// (optionally accelerated), journals every admission so the session replays
// bit-exactly through sjs_sim, and drains gracefully on SIGINT/SIGTERM or a
// client DRAIN request.
//
//   sjs_serve [--port=0] [--scheduler=V-Dover] [--journal=DIR]
//             [--c-lo=1] [--c-hi=1] [--accel=1] [--max-in-flight=1024]
//             [--no-admission-check] [--metrics]
//             [--shards=1] [--channel-capacity=1024]
//             [--cluster=0] [--cluster-key=deadline] [--rental=threshold]
//             [--budget=0] [--min-rented=1]
//
// --shards=N with N >= 2 runs the sharded admission plane (an acceptor
// thread + N engine shards behind bounded channels, docs/serving.md): jobs
// route by splitmix64 over their dense global ticket, each shard journals
// its own replayable bundle to <journal>/shard<k>, and --max-in-flight
// applies per shard. N = 1 keeps the classic single-threaded server.
//
// --cluster=K with K >= 1 serves against an elastic heterogeneous fleet of
// K machines (docs/cluster.md): a live cloud::MultiEngine scheduled by
// cluster::Dispatcher (global EDF or HVDF over the rented machines, rental
// policy from --rental, optional --budget cap). The journal is a cluster
// bundle replayable with `sjs_sim --cluster-bundle=DIR`. Exclusive with
// --shards >= 2; --scheduler and --c-lo/--c-hi are ignored in cluster mode.
//
// The capacity profile is constant at c-hi for the session (a live service
// observes its own rate; the declared band is what the algorithms consume).
// Prints "LISTENING <port>" on stdout once ready — scripts wait for it.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <fcntl.h>
#include <unistd.h>

#include "cluster/cluster_server.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"
#include "serve/sharded_server.hpp"
#include "util/cli.hpp"

namespace {

// Self-pipe: the handler only writes one byte; the event loop wakes, drains
// the pipe, and starts the graceful drain on the main thread.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

bool install_signal_pipe() {
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return false;
  }
  // Both ends nonblocking: the wake handler drains the pipe until EAGAIN,
  // and the signal handler must never block on a full pipe.
  for (int fd : g_signal_pipe) {
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  return true;
}

/// Boots `server` (any mode), serves until drained, then prints the mode's
/// drain report (`report(server)` returns true on a journal failure), the
/// server counters, the mode's journal hint and, with --metrics, the
/// registry. Returns the process exit code.
template <typename Server, typename Report, typename JournalHint>
int serve_until_drained(Server& server, Report report,
                        JournalHint journal_hint,
                        const sjs::obs::MetricsRegistry* metrics) {
  int port = 0;
  try {
    port = server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to start: %s\n", e.what());
    return 1;
  }
  server.watch_shutdown_fd(g_signal_pipe[0]);
  std::printf("LISTENING %d\n", port);
  std::fflush(stdout);

  server.run();

  const bool journal_failed = report(server);
  const auto stats = server.stats();
  std::printf("server: %llu submitted, %llu accepted, %llu rejected, "
              "%llu shed, %llu completed, %llu expired, %llu cancelled\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.cancelled));
  journal_hint();
  if (metrics) std::printf("\nmetrics:\n%s", metrics->render().c_str());
  return journal_failed ? 1 : 0;
}

/// Prints the journal failure of a single-session server to stderr; true
/// when there was one.
template <typename Server>
bool report_journal_error(const Server& server) {
  if (server.journal_error().empty()) return false;
  std::fprintf(stderr, "journal failure: %s\n",
               server.journal_error().c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_int("port", 0, "loopback port to listen on (0 = ephemeral)");
  flags.add_string("scheduler", "V-Dover",
                   "scheduler name (see sjs_sim --list-schedulers)");
  flags.add_string("journal", "",
                   "journal directory — written as a replayable instance "
                   "bundle (empty = no journal)");
  flags.add_double("c-lo", 1.0, "declared band floor (admission + V-Dover)");
  flags.add_double("c-hi", 1.0, "declared band ceiling = served rate");
  flags.add_double("accel", 1.0, "virtual seconds per wall second");
  flags.add_int("max-in-flight", 1024,
                "admitted-but-unresolved job limit; beyond it submits SHED");
  flags.add_bool("no-admission-check", false,
                 "admit individually-inadmissible jobs too (Thm. 3(3) off)");
  flags.add_bool("metrics", false, "print the server.* metrics at drain");
  flags.add_int("shards", 1,
                "engine shards (>= 2 enables the sharded admission plane)");
  flags.add_int("channel-capacity", 1024,
                "per-shard request channel slots (sharded plane only)");
  flags.add_int("cluster", 0,
                "fleet size (>= 1 serves an elastic heterogeneous cluster)");
  flags.add_string("cluster-key", "deadline",
                   "cluster placement key: deadline | density");
  flags.add_string("rental", "threshold",
                   "cluster rental policy: static | threshold | load");
  flags.add_double("budget", 0.0,
                   "total cluster rental budget (<= 0 = unlimited)");
  flags.add_int("min-rented", 1, "machines the cluster never releases below");
  if (!flags.parse(argc, argv)) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return 1;
    }
    return 0;
  }

  const double c_lo = flags.get_double("c-lo");
  const double c_hi = flags.get_double("c-hi");
  if (!(c_lo > 0.0) || c_hi < c_lo) {
    std::fprintf(stderr, "need 0 < c-lo <= c-hi\n");
    return 1;
  }
  // Reject zero/negative (and non-finite) numeric flags up front: a bad
  // --accel wedges the clock bridge, a zero --max-in-flight sheds every
  // submit, a zero --channel-capacity deadlocks the sharded plane.
  if (!flags.require_positive("accel") ||
      !flags.require_positive("max-in-flight") ||
      !flags.require_positive("channel-capacity") ||
      !flags.require_positive("shards")) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }

  const long cluster_k = flags.get_int("cluster");
  if (cluster_k < 0) {
    std::fprintf(stderr, "--cluster must be >= 0\n");
    return 1;
  }
  // Observability only when asked: without --metrics no front end gets a
  // registry, so the request path counts nothing and bridges no trace.
  sjs::obs::MetricsRegistry registry;
  sjs::obs::MetricsRegistry* const metrics =
      flags.get_bool("metrics") ? &registry : nullptr;
  sjs::serve::SystemClock clock;
  const std::string journal_dir = flags.get_string("journal");
  // Saturated, not truncated: an out-of-range --port reaches the listener's
  // range check (start() fails) instead of wrapping onto another port.
  const int port = static_cast<int>(
      std::clamp<long>(flags.get_int("port"), std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max()));

  if (cluster_k > 0) {
    if (flags.get_int("shards") >= 2) {
      std::fprintf(stderr, "--cluster and --shards >= 2 are exclusive\n");
      return 1;
    }
    const std::string key_name = flags.get_string("cluster-key");
    if (key_name != "deadline" && key_name != "density") {
      std::fprintf(stderr, "unknown --cluster-key \"%s\" (deadline|density)\n",
                   key_name.c_str());
      return 1;
    }
    sjs::cluster::ClusterServerConfig config;
    config.fleet =
        sjs::cluster::Fleet::heterogeneous(static_cast<std::size_t>(cluster_k));
    config.key = key_name == "deadline" ? sjs::cloud::GlobalKey::kDeadline
                                        : sjs::cloud::GlobalKey::kValueDensity;
    config.rental = flags.get_string("rental");
    config.budget = flags.get_double("budget");
    const long min_rented = flags.get_int("min-rented");
    if (min_rented < 1 || min_rented > cluster_k) {
      std::fprintf(stderr, "--min-rented must be in [1, --cluster]\n");
      return 1;
    }
    config.min_rented = static_cast<std::size_t>(min_rented);
    config.port = port;
    config.journal_dir = journal_dir;
    config.accel = flags.get_double("accel");
    config.max_in_flight =
        static_cast<std::uint64_t>(flags.get_int("max-in-flight"));
    config.admission_check = !flags.get_bool("no-admission-check");
    try {
      // Validate the rental policy name before binding the port.
      sjs::cluster::make_rental_controller(config.rental);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (!install_signal_pipe()) return 1;
    sjs::cluster::ClusterServer server(config, clock, metrics);
    return serve_until_drained(
        server,
        [](const sjs::cluster::ClusterServer& s) {
          const auto& result = s.result();
          std::printf(
              "drained: cluster of %zu (%s): %llu completed, %llu expired, "
              "value %.3f/%.3f, rental cost %.3f, peak %llu machines, "
              "%llu migrations\n",
              s.fleet().size(), result.scheduler_name.c_str(),
              static_cast<unsigned long long>(result.completed_count),
              static_cast<unsigned long long>(result.expired_count),
              result.completed_value, result.generated_value,
              result.rental_cost,
              static_cast<unsigned long long>(result.rented_peak),
              static_cast<unsigned long long>(result.migrations));
          return report_journal_error(s);
        },
        [&] {
          if (journal_dir.empty()) return;
          std::printf("journal: %s (replay with sjs_sim --cluster-bundle=%s "
                      "--outcomes-csv=...)\n",
                      journal_dir.c_str(), journal_dir.c_str());
        },
        metrics);
  }

  const auto lineup = sjs::sched::full_lineup(c_lo, c_hi);
  const auto* factory =
      sjs::sched::find_factory(lineup, flags.get_string("scheduler"));
  if (!factory) {
    std::fprintf(stderr, "unknown scheduler \"%s\" — see sjs_sim "
                 "--list-schedulers\n",
                 flags.get_string("scheduler").c_str());
    return 1;
  }

  sjs::serve::ServerConfig config;
  config.scheduler_name = factory->name;
  config.capacity = sjs::cap::CapacityProfile(c_hi);
  config.c_lo = c_lo;
  config.c_hi = c_hi;
  config.port = port;
  config.journal_dir = journal_dir;
  config.accel = flags.get_double("accel");
  config.max_in_flight =
      static_cast<std::uint64_t>(flags.get_int("max-in-flight"));
  config.admission_check = !flags.get_bool("no-admission-check");
  config.shards = static_cast<std::size_t>(flags.get_int("shards"));
  config.channel_capacity =
      static_cast<std::size_t>(flags.get_int("channel-capacity"));
  if (!install_signal_pipe()) return 1;

  if (config.shards >= 2) {
    sjs::serve::ShardedAdmissionServer server(
        config, [&] { return factory->make(); }, clock, metrics);
    return serve_until_drained(
        server,
        [](const sjs::serve::ShardedAdmissionServer& s) {
          bool failed = false;
          for (std::size_t k = 0; k < s.shard_count(); ++k) {
            std::printf("shard %zu drained: %s\n", k,
                        s.shard(k).result().to_string().c_str());
            if (!s.shard(k).journal_error().empty()) {
              std::fprintf(stderr, "shard %zu journal failure: %s\n", k,
                           s.shard(k).journal_error().c_str());
              failed = true;
            }
          }
          return failed;
        },
        [&] {
          if (journal_dir.empty()) return;
          std::printf("journal: %s (per-shard bundles; replay shard k with "
                      "sjs_sim --bundle=%s/shard<k> --scheduler=\"%s\" "
                      "--outcomes-csv=...)\n",
                      journal_dir.c_str(), journal_dir.c_str(),
                      config.scheduler_name.c_str());
        },
        metrics);
  }
  sjs::serve::AdmissionServer server(config, factory->make(), clock,
                                     metrics);
  return serve_until_drained(
      server,
      [](const sjs::serve::AdmissionServer& s) {
        std::printf("drained: %s\n", s.result().to_string().c_str());
        return report_journal_error(s);
      },
      [&] {
        if (journal_dir.empty()) return;
        std::printf("journal: %s (replay with sjs_sim --bundle=%s "
                    "--scheduler=\"%s\" --outcomes-csv=...)\n",
                    journal_dir.c_str(), journal_dir.c_str(),
                    config.scheduler_name.c_str());
      },
      metrics);
}
