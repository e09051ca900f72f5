// pb_probe — the benchmark's in-process probes.
//
//   pb_probe mc     --seconds=S --seed=N [--traced] --report=F
//       Batch Monte-Carlo throughput on one worker thread, digests off:
//       the paper's Table-I lineup (Dover c^ in {1, 10.5, 24.5, 35} and
//       V-Dover, lambda in {4, 6, 8, 12}, 2000 jobs per run) through
//       mc::run_monte_carlo, then the fleet Monte-Carlo (every capacity
//       scenario x both global keys, Fleet::heterogeneous(6)) one run at a
//       time through mc::run_cluster_mc.
//       --traced replays the same work with spans around generation,
//       sampling and each run, and timing decorators around the schedulers,
//       and checks that the decorators leave the replay digests unchanged.
//
//   pb_probe host   --mode=single|cluster [server flags] --report=F
//       Boots the server in-process the way sjs_serve does (cluster mode:
//       Fleet::heterogeneous(4), threshold rental), with a
//       TimedScheduler injected into the single-engine server, and
//       records a span (plus thread CPU time) around every step(). Prints
//       "LISTENING <port>"; SIGTERM or a DRAIN request drains it.
//
//   pb_probe stages --journal=DIR --kind=single|cluster --scratch=DIR
//       Per-stage replay of a session journal (stages.cpp).
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_server.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "mc/cluster_mc.hpp"
#include "mc/monte_carlo.hpp"
#include "obs/digest.hpp"
#include "probes.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "timing.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using pb::JsonOut;
using pb::Scope;
using pb::SpanAgg;
using pb::SpanLog;
using pb::SpanName;

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(pb::now_ns() - start_ns) * 1e-9;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// --- mc ---------------------------------------------------------------------

const std::vector<double> kCHats = {1.0, 10.5, 24.5, 35.0};
const std::vector<double> kLambdas = {4.0, 6.0, 8.0, 12.0};
constexpr std::size_t kFleetSize = 6;
sjs::mc::McConfig table_config(double lambda, std::uint64_t seed) {
  sjs::mc::McConfig config;
  config.setup.lambda = lambda;
  config.setup.expected_jobs = 2000.0;
  config.runs = 1;
  config.seed = seed;
  config.threads = 1;
  return config;
}

sjs::mc::ClusterMcConfig fleet_config(std::uint64_t seed) {
  sjs::mc::ClusterMcConfig config;
  config.fleet = sjs::cluster::Fleet::heterogeneous(kFleetSize);
  config.jobs.c_lo = config.fleet.admission_c_lo();
  config.runs = 1;
  config.seed = seed;
  config.threads = 1;
  return config;
}

/// Fleet cycles revisit this many seed-derived instance sets, so a run
/// measures a bounded set of fleet instances however long it lasts (enough
/// of them that one seed's set runs about as fast as another's).
constexpr std::size_t kFleetRing = 64;
/// Table-I cycles likewise revisit this many seeds (each one instance per
/// lambda).
constexpr std::size_t kTableRing = 16;

/// True when every scheduler of `lineup` runs run `run` of `config` to
/// completion: the instance mc::run_monte_carlo generates for that run,
/// played through a fresh engine per scheduler in this thread. An engine
/// refusal (a thrown SJS_CHECK, like the completion check behind run.py's
/// KNOWN_ABORTS) inside run_monte_carlo's worker thread would end the
/// process, so the Monte-Carlo passes only run instances screened here.
bool table_instance_runs(const sjs::mc::McConfig& config, std::size_t run,
                         const std::vector<sjs::sched::NamedFactory>& lineup) {
  sjs::Rng rng(config.seed, run);
  const sjs::Instance instance = sjs::gen::generate_paper_instance(config.setup, rng);
  for (const auto& f : lineup) {
    auto scheduler = f.make();
    sjs::sim::Engine engine(instance, *scheduler);
    try {
      engine.run_to_completion();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "table run refused by the engine: %s\n", e.what());
      return false;
    }
  }
  return true;
}

/// Screens each Table-I (seed, lambda) instance of a ring once; remembers
/// the refused ones.
class TableScreen {
 public:
  TableScreen(std::uint64_t seed, const std::vector<sjs::sched::NamedFactory>& lineup)
      : seed_(seed), lineup_(&lineup), state_(kTableRing * kLambdas.size(), 0) {}

  /// The config of ring entry `ring` at lambda index `l`.
  sjs::mc::McConfig config(std::size_t ring, std::size_t l) const {
    return table_config(kLambdas[l], seed_ + ring);
  }

  /// True when that instance runs; screens it on the first call.
  bool runs(std::size_t ring, std::size_t l) {
    char& s = state_[ring * kLambdas.size() + l];
    if (s == 0) {
      s = table_instance_runs(config(ring, l), 0, *lineup_) ? 1 : 2;
      if (s == 2) ++refused_;
    }
    return s == 1;
  }

  std::uint64_t refused() const { return refused_; }

 private:
  std::uint64_t seed_;
  const std::vector<sjs::sched::NamedFactory>* lineup_;
  std::vector<char> state_;  // 0 unscreened, 1 runs, 2 refused
  std::uint64_t refused_ = 0;
};

/// Runs `fn(config, cell)` for every fleet cell of one cycle: every
/// capacity scenario x both global keys.
template <typename Fn>
void for_each_fleet_cell(sjs::mc::ClusterMcConfig config, Fn fn) {
  std::size_t cell = 0;
  for (const auto kind : sjs::cap::all_scenarios()) {
    config.scenario.kind = kind;
    for (const auto key : {sjs::cloud::GlobalKey::kDeadline,
                           sjs::cloud::GlobalKey::kValueDensity}) {
      config.key = key;
      fn(config, cell++);
    }
  }
}

/// One fleet Monte-Carlo run taken apart the way mc::run_cluster_mc performs
/// run 0 of `config`: job stream first, then the fleet paths, then a fresh
/// dispatcher through cluster::run_cluster. With a log, path sampling and
/// the run are span-timed and the dispatcher runs behind a
/// TimedGlobalScheduler. Unlike run_cluster_mc, it lets an engine refusal
/// (a thrown SJS_CHECK) reach the caller.
sjs::cloud::MultiSimResult fleet_run(const sjs::mc::ClusterMcConfig& config,
                                     SpanLog* log = nullptr,
                                     sjs::obs::TraceSink* sink = nullptr) {
  sjs::Rng rng(config.seed, 0);
  std::vector<sjs::Job> jobs = sjs::gen::generate_jobs(config.jobs, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<sjs::JobId>(i);
  std::vector<sjs::cap::CapacityProfile> paths;
  {
    std::unique_ptr<Scope> span;
    if (log) span = std::make_unique<Scope>(*log, SpanName::kSamplePaths);
    paths = config.fleet.sample_paths(config.scenario, config.jobs.horizon, rng);
  }
  sjs::cluster::DispatcherConfig dc;
  dc.key = config.key;
  dc.budget = config.budget;
  dc.min_rented = config.min_rented;
  sjs::cluster::Dispatcher dispatcher(config.fleet, dc,
                                      sjs::cluster::make_rental_controller(config.rental));
  if (!log) return sjs::cluster::run_cluster(jobs, std::move(paths), dispatcher, sink);
  pb::TimedGlobalScheduler timed(dispatcher, *log);
  Scope span(*log, SpanName::kClusterRun);
  sjs::cloud::MultiEngine engine(jobs, std::move(paths), timed);
  engine.attach_trace(sink);
  return engine.run_to_completion();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Untimed: does wrapping every scheduler in a decorator change any event?
bool decorators_preserve_digests(std::uint64_t seed) {
  const auto plain = sjs::sched::paper_lineup(kCHats);
  SpanLog log(0);
  std::vector<sjs::sched::NamedFactory> wrapped;
  for (const auto& f : plain) {
    wrapped.push_back({f.name, [&log, make = f.make] {
                         return std::make_unique<pb::TimedScheduler>(make(), log);
                       }});
  }
  // The first seed from `seed` on whose two runs the engine refuses nothing.
  auto config = table_config(6.0, seed);
  config.runs = 2;
  config.compute_digests = true;
  while (!table_instance_runs(config, 0, plain) || !table_instance_runs(config, 1, plain)) {
    ++config.seed;
  }
  const auto a = sjs::mc::run_monte_carlo(config, plain);
  const auto b = sjs::mc::run_monte_carlo(config, wrapped);
  for (std::size_t s = 0; s < plain.size(); ++s) {
    if (a.per_scheduler[s].combined_digest != b.per_scheduler[s].combined_digest) {
      return false;
    }
  }
  // The fleet dispatcher, with and without its decorator (a run the engine
  // refuses must be refused both ways).
  std::uint64_t digests[2] = {0, 0};
  for (int decorated = 0; decorated < 2; ++decorated) {
    sjs::obs::DigestSink digest;
    try {
      fleet_run(fleet_config(seed), decorated ? &log : nullptr, &digest);
      digests[decorated] = digest.digest();
    } catch (const std::exception&) {
      digests[decorated] = 0;
    }
  }
  return digests[0] == digests[1];
}

/// The traced replay of the batch work: same instances as the timed pass,
/// with spans around each public call and decorators around the schedulers.
void traced_batch(double seconds, std::uint64_t seed, JsonOut& out) {
  SpanLog log;
  const auto lineup = sjs::sched::paper_lineup(kCHats);
  std::uint64_t jobs = 0;
  std::uint64_t sims = 0;
  std::uint64_t events = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t queue_peak = 0;
  double dead_ratio_sum = 0.0;
  double overhead_s = 0.0;
  std::uint64_t overhead_sims = 0;
  std::int64_t decorated_ns = 0;
  TableScreen screen(seed, lineup);
  const std::int64_t table_start = pb::now_ns();
  for (std::size_t c = 0; c == 0 || seconds_since(table_start) < seconds / 2; ++c) {
    for (std::size_t l = 0; l < kLambdas.size(); ++l) {
      if (!screen.runs(c % kTableRing, l)) continue;
      const auto config = screen.config(c % kTableRing, l);
      // The public driver's wall time for this instance, undecorated...
      const std::int64_t t0 = pb::now_ns();
      sjs::mc::run_monte_carlo(config, lineup);
      const double public_s = seconds_since(t0);
      // ...and the same instance taken apart, still undecorated.
      sjs::Rng rng(config.seed, 0);
      std::unique_ptr<sjs::Instance> instance;
      const std::int64_t g0 = pb::now_ns();
      {
        Scope s(log, SpanName::kGenerate);
        instance = std::make_unique<sjs::Instance>(
            sjs::gen::generate_paper_instance(config.setup, rng));
      }
      std::int64_t parts_ns = pb::now_ns() - g0;
      for (const auto& f : lineup) {
        auto plain = f.make();
        sjs::sim::Engine engine(*instance, *plain);
        const std::int64_t r0 = pb::now_ns();
        sjs::sim::SimResult result;
        {
          Scope s(log, SpanName::kRun);
          result = engine.run_to_completion();
        }
        parts_ns += pb::now_ns() - r0;
        ++sims;
        jobs += instance->size();
        events += result.events_processed;
        preemptions += result.preemptions;
        queue_peak = std::max(queue_peak, result.queue_peak);
        dead_ratio_sum += per(static_cast<double>(result.event_heap_dead_peak),
                              static_cast<double>(result.event_heap_peak));
      }
      // The decorated pass: hook spans, and the cost of taking them.
      for (const auto& f : lineup) {
        pb::TimedScheduler sched(f.make(), log);
        sjs::sim::Engine engine(*instance, sched);
        const std::int64_t d0 = pb::now_ns();
        engine.run_to_completion();
        decorated_ns += pb::now_ns() - d0;
      }
      overhead_s += public_s - static_cast<double>(parts_ns) * 1e-9;
      overhead_sims += lineup.size();
    }
  }
  const SpanAgg& gen = log.agg(SpanName::kGenerate);
  const SpanAgg& run = log.agg(SpanName::kRun);
  out.num("jobs.generate_ms", per(static_cast<double>(gen.total_ns) / 1e6,
                                  static_cast<double>(gen.count)));
  out.num("sim.run_ms", per(static_cast<double>(run.self_ns) / 1e6,
                            static_cast<double>(run.count)));
  out.num("sim.events_per_s", per(static_cast<double>(events),
                                  static_cast<double>(run.total_ns) * 1e-9));
  out.num("sim.dead_event_peak_ratio", per(dead_ratio_sum, static_cast<double>(sims)));
  out.num("mc.run_overhead_us", per(overhead_s * 1e6, static_cast<double>(overhead_sims)));
  // Decorated vs plain run_to_completion over the same instances.
  out.num("trace.overhead_pct.mc",
          100.0 * per(static_cast<double>(decorated_ns - run.total_ns),
                      static_cast<double>(run.total_ns)));
  std::uint64_t hooks = 0;
  for (SpanName h : {SpanName::kSchedRelease, SpanName::kSchedComplete,
                     SpanName::kSchedExpire, SpanName::kSchedTimer,
                     SpanName::kSchedCapacity}) {
    hooks += log.agg(h).count;
  }
  out.num("sched.hooks_per_job", per(static_cast<double>(hooks), static_cast<double>(jobs)));
  out.num("sched.preemptions_per_job",
          per(static_cast<double>(preemptions), static_cast<double>(jobs)));
  out.num("sched.queue_peak", static_cast<double>(queue_peak));

  // Fleet Monte-Carlo, the same runs with spans and the decorator.
  std::uint64_t fleet_jobs = 0;
  std::uint64_t fleet_events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t completed = 0;
  const std::int64_t fleet_start = pb::now_ns();
  for (std::size_t c = 0; c == 0 || seconds_since(fleet_start) < seconds / 2; ++c) {
    for_each_fleet_cell(fleet_config(seed + c % kFleetRing),
                        [&](const sjs::mc::ClusterMcConfig& config, std::size_t) {
      try {
        const auto result = fleet_run(config, &log);
        fleet_jobs += result.outcomes.size();
        dispatches += result.dispatches;
        migrations += result.migrations;
        completed += result.completed_count;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleet run refused by the engine: %s\n", e.what());
      }
    });
  }
  fleet_events = log.agg(SpanName::kClusterRelease).count +
                 log.agg(SpanName::kClusterComplete).count +
                 log.agg(SpanName::kClusterExpire).count;
  const SpanAgg& paths = log.agg(SpanName::kSamplePaths);
  const SpanAgg& crun = log.agg(SpanName::kClusterRun);
  out.num("capacity.sample_paths_ms", per(static_cast<double>(paths.total_ns) / 1e6,
                                          static_cast<double>(paths.count)));
  out.num("cloud.run_self_ms", per(static_cast<double>(crun.self_ns) / 1e6,
                                   static_cast<double>(crun.count)));
  out.num("cloud.events_per_s", per(static_cast<double>(fleet_events),
                                    static_cast<double>(crun.total_ns) * 1e-9));
  out.num("cloud.dispatches_per_job",
          per(static_cast<double>(dispatches), static_cast<double>(fleet_jobs)));
  out.num("cluster.migrations_per_completed",
          per(static_cast<double>(migrations), static_cast<double>(completed)));
  for (std::size_t k = 0; k < pb::kSpanNames; ++k) {
    const SpanAgg& a = log.agg(static_cast<SpanName>(k));
    if (a.count > 0) out.agg(pb::span_name(static_cast<SpanName>(k)), a);
  }
}

int cmd_mc(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_double("seconds", 4.0, "measured wall seconds (split table/fleet)");
  flags.add_int("seed", 1, "master seed");
  flags.add_bool("traced", false, "spans + decorators instead of the timed pass");
  flags.add_string("report", "", "JSON report path (empty = stdout)");
  if (!flags.parse(argc, argv)) return 1;
  const double seconds = flags.get_double("seconds");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed")) * 1000003ULL;
  JsonOut out;

  if (flags.get_bool("traced")) {
    const bool same = decorators_preserve_digests(seed);
    out.num("decorated_digest_match", same ? 1.0 : 0.0);
    traced_batch(seconds, seed, out);
    return pb::write_text(flags.get_string("report"), out.text()) ? 0 : 1;
  }

  // Table I: one cycle = every lambda, one instance each, whole lineup, over
  // a ring of kTableRing seeds. Each instance is screened (untimed) on its
  // first visit; one the engine refuses is left out of the inputs.
  const auto lineup = sjs::sched::paper_lineup(kCHats);
  TableScreen screen(seed, lineup);
  std::vector<double> cycle_rates;
  std::uint64_t sims = 0;
  std::int64_t table_screen_ns = 0;  // left out of the measured time
  const std::int64_t table_start = pb::now_ns();
  for (std::size_t c = 0;
       c == 0 || seconds_since(table_start + table_screen_ns) < seconds / 2; ++c) {
    const std::size_t ring = c % kTableRing;
    if (c < kTableRing) {
      const std::int64_t s0 = pb::now_ns();
      for (std::size_t l = 0; l < kLambdas.size(); ++l) screen.runs(ring, l);
      table_screen_ns += pb::now_ns() - s0;
    }
    const std::int64_t t0 = pb::now_ns();
    std::size_t runs = 0;
    for (std::size_t l = 0; l < kLambdas.size(); ++l) {
      if (!screen.runs(ring, l)) continue;
      sjs::mc::run_monte_carlo(screen.config(ring, l), lineup);
      runs += lineup.size();
    }
    const double dt = seconds_since(t0);
    sims += runs;
    if (runs > 0) cycle_rates.push_back(static_cast<double>(runs) / dt);
  }
  const double table_s = seconds_since(table_start + table_screen_ns);

  // Fleet: one cycle = every scenario x both keys, one mc::run_cluster_mc
  // run each. An engine refusal (a thrown SJS_CHECK) inside run_cluster_mc's
  // worker thread would end the process, so the first visit of each ring
  // entry runs its instances untimed through fleet_run, the same steps: a
  // run the engine refuses is left out of the inputs from then on.
  const std::size_t cells = sjs::cap::all_scenarios().size() * 2;
  std::vector<double> fleet_rates;
  std::uint64_t fleet_runs = 0;
  std::uint64_t fleet_refused = 0;
  std::vector<char> screened(kFleetRing, 0);
  std::vector<char> refused(kFleetRing * cells, 0);
  std::int64_t screen_ns = 0;  // left out of the measured time
  const std::int64_t fleet_start = pb::now_ns();
  for (std::size_t c = 0;
       c < 2 || seconds_since(fleet_start + screen_ns) < seconds / 2; ++c) {
    const std::size_t ring = c % kFleetRing;
    const sjs::mc::ClusterMcConfig ring_config = fleet_config(seed + ring);
    if (!screened[ring]) {
      screened[ring] = 1;
      const std::int64_t s0 = pb::now_ns();
      for_each_fleet_cell(ring_config,
                          [&](const sjs::mc::ClusterMcConfig& config, std::size_t cell) {
        try {
          fleet_run(config);
        } catch (const std::exception& e) {
          refused[ring * cells + cell] = 1;
          ++fleet_refused;
          std::fprintf(stderr, "fleet run refused by the engine: %s\n", e.what());
        }
      });
      screen_ns += pb::now_ns() - s0;
    }
    const std::int64_t t0 = pb::now_ns();
    std::size_t runs = 0;
    for_each_fleet_cell(ring_config,
                        [&](const sjs::mc::ClusterMcConfig& config, std::size_t cell) {
      if (refused[ring * cells + cell]) return;
      sjs::mc::run_cluster_mc(config);
      ++runs;
    });
    fleet_runs += runs;
    if (runs > 0) fleet_rates.push_back(static_cast<double>(runs) / seconds_since(t0));
  }
  out.list("mc_cycle_rates", cycle_rates);
  out.list("cluster_mc_cycle_rates", fleet_rates);
  out.num("mc_runs_per_s_median", median(cycle_rates));
  out.num("mc_cycles", static_cast<double>(cycle_rates.size()));
  out.num("mc_sims", static_cast<double>(sims));
  out.num("mc_refused", static_cast<double>(screen.refused()));
  out.num("mc_seconds", table_s);
  out.num("cluster_mc_runs_per_s_median", median(fleet_rates));
  out.num("cluster_mc_cycles", static_cast<double>(fleet_rates.size()));
  out.num("cluster_mc_runs", static_cast<double>(fleet_runs));
  out.num("cluster_mc_refused", static_cast<double>(fleet_refused));
  return pb::write_text(flags.get_string("report"), out.text()) ? 0 : 1;
}

// --- host -------------------------------------------------------------------

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Drives `server` to completion with a span and a CPU reading per step.
template <typename Server>
void host_loop(Server& server, SpanLog& log, JsonOut& out) {
  std::uint64_t busy_steps = 0;
  std::uint64_t steps = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t submitted = 0;
  while (true) {
    const std::uint64_t before = server.stats().submitted;
    const std::int64_t c0 = thread_cpu_ns();
    bool more = false;
    {
      Scope s(log, SpanName::kStep);
      more = server.step();
    }
    cpu_ns += thread_cpu_ns() - c0;
    const std::uint64_t after = server.stats().submitted;
    ++steps;
    if (after > before) ++busy_steps;
    submitted = after;
    if (!more) break;
  }
  const SpanAgg& step = log.agg(SpanName::kStep);
  out.num("serve.step_us", per(static_cast<double>(step.total_ns) / 1e3,
                               static_cast<double>(step.count)));
  out.num("serve.submits_per_step",
          per(static_cast<double>(submitted), static_cast<double>(busy_steps)));
  out.num("steps", static_cast<double>(steps));
  out.num("busy_steps", static_cast<double>(busy_steps));
  out.num("step_cpu_ns", static_cast<double>(cpu_ns));
  out.num("step_self_ns", static_cast<double>(step.self_ns));
  out.num("submitted", static_cast<double>(submitted));
}

int cmd_host(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_string("mode", "single", "single | cluster");
  flags.add_string("journal", "", "journal directory");
  flags.add_double("c-lo", 1.0, "declared band floor");
  flags.add_double("c-hi", 1.0, "declared band ceiling = served rate");
  flags.add_double("accel", 1.0, "virtual seconds per wall second");
  flags.add_int("max-in-flight", 1024, "admitted-but-unresolved limit");
  flags.add_string("report", "", "JSON report path");
  flags.add_string("spans", "", "CSV file for the kept step spans");
  if (!flags.parse(argc, argv)) return 1;
  const std::string mode = flags.get_string("mode");

  if (::pipe(g_signal_pipe) != 0) return 1;
  for (int fd : g_signal_pipe) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  sjs::serve::SystemClock clock;
  SpanLog log;
  JsonOut out;
  out.str("mode", mode);
  // Like sjs_serve, only a failed start() is handled: an engine check that
  // throws mid-session terminates the process, so the benchmark sees the
  // same abort from this host as from the daemon.
  const auto boot = [&](auto& server) {
    int port = 0;
    try {
      port = server.start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "host: failed to start: %s\n", e.what());
      std::exit(1);
    }
    server.watch_shutdown_fd(g_signal_pipe[0]);
    std::printf("LISTENING %d\n", port);
    std::fflush(stdout);
    host_loop(server, log, out);
  };
  if (mode == "cluster") {
    sjs::cluster::ClusterServerConfig config;
    config.fleet = sjs::cluster::Fleet::heterogeneous(4);
    config.rental = "threshold";
    config.journal_dir = flags.get_string("journal");
    config.accel = flags.get_double("accel");
    config.max_in_flight = static_cast<std::uint64_t>(flags.get_int("max-in-flight"));
    config.trace_ring = 4096;
    sjs::cluster::ClusterServer server(config, clock);
    boot(server);
    if (!server.journal_error().empty()) return 1;
  } else {
    const double c_lo = flags.get_double("c-lo");
    const double c_hi = flags.get_double("c-hi");
    const auto lineup = sjs::sched::full_lineup(c_lo, c_hi);
    const auto* factory = sjs::sched::find_factory(lineup, "V-Dover");
    sjs::serve::ServerConfig config;
    config.scheduler_name = factory->name;
    config.capacity = sjs::cap::CapacityProfile(c_hi);
    config.c_lo = c_lo;
    config.c_hi = c_hi;
    config.journal_dir = flags.get_string("journal");
    config.accel = flags.get_double("accel");
    config.max_in_flight = static_cast<std::uint64_t>(flags.get_int("max-in-flight"));
    config.trace_ring = 4096;
    // The hooks run on this thread, so they nest under the step that
    // ran them.
    sjs::serve::AdmissionServer server(
        config, std::make_unique<pb::TimedScheduler>(factory->make(), log), clock);
    boot(server);
    if (!server.journal_error().empty()) return 1;
  }
  for (std::size_t k = 0; k < pb::kSpanNames; ++k) {
    const SpanAgg& a = log.agg(static_cast<SpanName>(k));
    if (a.count > 0) out.agg(pb::span_name(static_cast<SpanName>(k)), a);
  }
  out.num("spans_kept", static_cast<double>(log.kept()));
  out.num("spans_dropped", static_cast<double>(log.dropped()));
  if (!flags.get_string("spans").empty()) {
    if (std::FILE* f = std::fopen(flags.get_string("spans").c_str(), "w")) {
      log.write_csv(f);
      std::fclose(f);
    }
  }
  return pb::write_text(flags.get_string("report"), out.text()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb_probe mc|host|stages [flags]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "mc") return cmd_mc(argc - 1, argv + 1);
  if (cmd == "host") return cmd_host(argc - 1, argv + 1);
  if (cmd == "stages") return pb::cmd_stages(argc - 1, argv + 1);
  std::fprintf(stderr, "pb_probe: unknown command %s\n", cmd.c_str());
  return 1;
}
