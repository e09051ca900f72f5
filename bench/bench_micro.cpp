// google-benchmark micro-benchmarks: the engine/scheduler hot paths whose
// throughput determines how large a Monte-Carlo campaign the library can
// sustain (capacity inversion, EDF feasibility, full simulation runs per
// scheduler, exact offline solving).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "capacity/capacity_process.hpp"
#include "capacity/scenario.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "conc/channel.hpp"
#include "lint/analyzer.hpp"
#include "jobs/workload_gen.hpp"
#include "offline/exact.hpp"
#include "offline/feasibility.hpp"
#include "sched/factory.hpp"
#include "sched/ready_queue.hpp"
#include "sched/vdover.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_worker.hpp"
#include "sim/engine.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"

namespace {

sjs::cap::CapacityProfile make_profile(std::size_t segments) {
  sjs::Rng rng(1);
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(1.0, 35.0)};
  for (std::size_t i = 1; i < segments; ++i) {
    times.push_back(times.back() + rng.exponential_mean(1.0));
    rates.push_back(rng.uniform(1.0, 35.0));
  }
  return {std::move(times), std::move(rates)};
}

void BM_CapacityInvert(benchmark::State& state) {
  auto profile = make_profile(static_cast<std::size_t>(state.range(0)));
  sjs::Rng rng(2);
  const double span = profile.breakpoints().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profile.invert(rng.uniform(0.0, span), rng.exponential_mean(5.0)));
  }
}
BENCHMARK(BM_CapacityInvert)->Arg(8)->Arg(64)->Arg(512);

void BM_CapacityWork(benchmark::State& state) {
  auto profile = make_profile(static_cast<std::size_t>(state.range(0)));
  sjs::Rng rng(3);
  const double span = profile.breakpoints().back();
  for (auto _ : state) {
    const double a = rng.uniform(0.0, span);
    benchmark::DoNotOptimize(profile.work(a, a + rng.exponential_mean(3.0)));
  }
}
BENCHMARK(BM_CapacityWork)->Arg(8)->Arg(512);

void BM_CapacityInvertMonotone(benchmark::State& state) {
  // The engine's actual access pattern: invert() queried at non-decreasing
  // start times (dispatch instants move forward). Arg 0 = segment count,
  // arg 1 = 0 for the plain binary-search methods, 1 for
  // CapacityProfile::Cursor (amortized O(1) on this stream).
  auto profile = make_profile(static_cast<std::size_t>(state.range(0)));
  const bool use_cursor = state.range(1) != 0;
  const double span = profile.breakpoints().back();
  sjs::cap::CapacityProfile::Cursor cursor(profile);
  sjs::Rng rng(8);
  double t = 0.0;
  for (auto _ : state) {
    const double w = rng.exponential_mean(5.0);
    const double done =
        use_cursor ? cursor.invert(t, w) : profile.invert(t, w);
    benchmark::DoNotOptimize(done);
    t += rng.exponential_mean(0.05);
    if (t > span) {
      t = 0.0;
      cursor.reset();
    }
  }
  state.SetLabel(use_cursor ? "cursor" : "plain");
}
BENCHMARK(BM_CapacityInvertMonotone)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_EdfFeasibility(benchmark::State& state) {
  sjs::Rng rng(4);
  auto profile = make_profile(32);
  auto jobs = sjs::gen::generate_small_random_jobs(
      static_cast<std::size_t>(state.range(0)), 20.0, 7.0, 1.0, 2.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sjs::offline::edf_feasible(jobs, profile));
  }
}
BENCHMARK(BM_EdfFeasibility)->Arg(10)->Arg(100)->Arg(1000);

void BM_FullSimulation(benchmark::State& state) {
  // One complete paper-setup run per iteration for the selected scheduler.
  const int scheduler_index = static_cast<int>(state.range(0));
  sjs::gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = static_cast<double>(state.range(1));
  sjs::Rng rng(5);
  const sjs::Instance instance = sjs::gen::generate_paper_instance(setup, rng);
  auto factories = sjs::sched::extended_lineup({10.5});
  const auto& factory = factories[static_cast<std::size_t>(scheduler_index)];
  state.SetLabel(factory.name);

  std::uint64_t events = 0;
  for (auto _ : state) {
    auto scheduler = factory.make();
    sjs::sim::Engine engine(instance, *scheduler);
    auto result = engine.run_to_completion();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.completed_value);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// Args: {scheduler index in extended_lineup({10.5}), expected jobs}.
// 0=Dover(10.5), 1=V-Dover, 2=EDF, 3=EDF-AC, 4=LLF, 5=FIFO, 6=HVF, 7=HVDF,
// 8=SRPT (labels are set from the factory names at runtime).
BENCHMARK(BM_FullSimulation)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({3, 1000})
    ->Args({4, 1000})
    ->Args({5, 1000})
    ->Args({6, 1000})
    ->Args({7, 1000})
    ->Args({8, 1000});

void BM_FullSimulationReuse(benchmark::State& state) {
  // BM_FullSimulation's loop with the PR's engine-reuse path: one Engine is
  // constructed outside the loop and reset() per iteration, the way
  // mc::run_monte_carlo replays one instance through a scheduler lineup.
  // Compare against BM_FullSimulation at the same args to see the
  // allocation-free win.
  const int scheduler_index = static_cast<int>(state.range(0));
  sjs::gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = static_cast<double>(state.range(1));
  sjs::Rng rng(5);
  const sjs::Instance instance = sjs::gen::generate_paper_instance(setup, rng);
  auto factories = sjs::sched::extended_lineup({10.5});
  const auto& factory = factories[static_cast<std::size_t>(scheduler_index)];
  state.SetLabel(factory.name);

  std::optional<sjs::sim::Engine> engine;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto scheduler = factory.make();
    if (engine) {
      engine->reset(*scheduler);
    } else {
      engine.emplace(instance, *scheduler);
    }
    auto result = engine->run_to_completion();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.completed_value);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// V-Dover, EDF, and LLF cover the three queue profiles: three queues with
// ordered visitation, one plain deadline queue, and the timer-churn-heavy
// laxity queue.
BENCHMARK(BM_FullSimulationReuse)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({4, 1000});

void BM_MultiEngineDispatch(benchmark::State& state) {
  // One full fleet run per iteration: arg(0) heterogeneous machines under
  // the elastic threshold controller, constant serving paths, a fixed seeded
  // workload sized for the fleet's admission floor. This is the per-run cost
  // of sjs_sim --cluster and of each Monte-Carlo repetition in the cluster
  // MC tables — dispatcher interrupts (accrue / re-rent / re-place) are the
  // hot path on top of the MultiEngine event loop.
  const auto machines = static_cast<std::size_t>(state.range(0));
  const sjs::cluster::Fleet fleet = sjs::cluster::Fleet::heterogeneous(machines);
  sjs::gen::JobGenParams params;
  params.lambda = 10.0;
  params.horizon = 60.0;
  params.c_lo = fleet.admission_c_lo();
  sjs::Rng rng(5);
  std::vector<sjs::Job> jobs = sjs::gen::generate_jobs(params, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sjs::JobId>(i);
  }
  const auto paths = fleet.constant_paths();

  std::uint64_t dispatches = 0;
  for (auto _ : state) {
    sjs::cluster::Dispatcher dispatcher(
        fleet, sjs::cluster::DispatcherConfig{},
        sjs::cluster::make_rental_controller("threshold"));
    const auto result = sjs::cluster::run_cluster(jobs, paths, dispatcher);
    dispatches += result.dispatches;
    benchmark::DoNotOptimize(result.rental_cost);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["dispatches/s"] = benchmark::Counter(
      static_cast<double>(dispatches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiEngineDispatch)->Arg(2)->Arg(4)->Arg(8);

void BM_ClusterScenario(benchmark::State& state) {
  // Scenario-path sampling plus the fleet run it feeds: each iteration draws
  // a fresh correlated fleet of capacity paths (arg(0) selects the scenario
  // kind in declaration order) for 6 machines and runs the same seeded
  // workload through the elastic dispatcher. Measures what one cluster MC
  // repetition costs when the paths are volatile instead of constant —
  // sampling is re-done per iteration exactly as mc::run_cluster_mc re-draws
  // per run.
  const auto kind = static_cast<sjs::cap::ScenarioKind>(state.range(0));
  const sjs::cluster::Fleet fleet = sjs::cluster::Fleet::heterogeneous(6);
  sjs::cluster::ScenarioConfig scenario;
  scenario.kind = kind;
  state.SetLabel(sjs::cap::scenario_name(kind));

  sjs::gen::JobGenParams params;
  params.lambda = 10.0;
  params.horizon = 60.0;
  params.c_lo = fleet.admission_c_lo();
  sjs::Rng job_rng(5);
  std::vector<sjs::Job> jobs = sjs::gen::generate_jobs(params, job_rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<sjs::JobId>(i);
  }

  std::uint64_t completed = 0;
  std::uint64_t run = 0;
  for (auto _ : state) {
    sjs::Rng path_rng(11, run++);
    auto paths = fleet.sample_paths(scenario, params.horizon, path_rng);
    sjs::cluster::Dispatcher dispatcher(
        fleet, sjs::cluster::DispatcherConfig{},
        sjs::cluster::make_rental_controller("threshold"));
    const auto result =
        sjs::cluster::run_cluster(jobs, std::move(paths), dispatcher);
    completed += result.completed_count;
    benchmark::DoNotOptimize(result.rental_cost);
  }
  state.counters["completed/s"] = benchmark::Counter(
      static_cast<double>(completed), benchmark::Counter::kIsRate);
}
// Args: 0=steady, 1=diurnal, 2=flash-crowd, 3=outage (labels set at runtime).
BENCHMARK(BM_ClusterScenario)->Arg(1)->Arg(2)->Arg(3);

void BM_LiveSteadyState(benchmark::State& state) {
  // The sjs_serve steady state without sockets: one warmed live-mode
  // session, pre-sized the way AdmissionServer::start() pre-sizes from
  // --max-in-flight, admitting one job, advancing virtual time and retiring
  // the resolved jobs per iteration, as serve::Session does. The job window
  // stays within the pre-size however long the session runs; after the
  // warm-up batch every structure is at its high water and the loop body
  // must perform zero heap allocations. The interposed AllocProbe counts the loop's allocations
  // and reports them as allocs_per_op so the claim is pinned in the
  // benchmark output itself, not just in hotpath_test.
  const int scheduler_index = static_cast<int>(state.range(0));
  auto factories = sjs::sched::extended_lineup({10.5});
  const auto& factory = factories[static_cast<std::size_t>(scheduler_index)];
  state.SetLabel(factory.name);

  constexpr std::size_t kWarmup = 256;
  constexpr std::size_t kMaxInFlight = 256;
  constexpr double kDt = 0.1;  // arrival spacing: ~75% load at capacity 4
  sjs::Instance instance({}, sjs::cap::CapacityProfile(4.0));
  auto scheduler = factory.make();
  sjs::sim::Engine engine(instance, *scheduler);
  engine.reserve_live(kMaxInFlight);
  engine.begin_live();
  const sjs::sim::JobTable& window = engine.job_state();

  double now = 0.0;
  std::size_t phase = 0;
  const auto admit_one = [&] {
    static constexpr double kWorkloads[] = {0.1, 0.3, 0.5};
    now += kDt;
    sjs::Job job;
    job.release = now;
    job.workload = kWorkloads[phase];
    job.deadline = now + 5.0;
    job.value = job.workload * 12.0;
    phase = (phase + 1) % 3;
    engine.admit_live(job);
    engine.advance_to(now);
    while (window.base() < window.end() &&
           window.outcome(window.base()) != sjs::sim::JobOutcome::kPending) {
      engine.retire(window.base());
    }
  };
  for (std::size_t i = 0; i < kWarmup; ++i) admit_one();

  sjs::util::AllocProbe::reset();
  for (auto _ : state) {
    admit_one();
  }
  const auto allocs = static_cast<double>(sjs::util::AllocProbe::count());
  benchmark::DoNotOptimize(engine.now());
  state.counters["allocs_per_op"] =
      benchmark::Counter(allocs, benchmark::Counter::kAvgIterations);
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
// Fixed iteration count, so runs are comparable. V-Dover, EDF, and LLF
// cover the three queue profiles.
BENCHMARK(BM_LiveSteadyState)
    ->Iterations(100000)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_ReadyQueueChurn(benchmark::State& state) {
  // The scheduler-queue hot loop in isolation: a deterministic interleaving
  // of push / pop / erase-by-id / re-key at a standing occupancy of
  // state.range(0), run through sched::ReadyQueue (arg1 = 1) or the
  // std::set<pair<double, JobId>> it replaced (arg1 = 0). Both paths consume
  // the same pre-generated operation stream, so the numbers isolate the
  // container cost (node allocation + pointer chasing vs flat sifts).
  const std::size_t occupancy = static_cast<std::size_t>(state.range(0));
  const bool use_ready_queue = state.range(1) != 0;
  state.SetLabel(use_ready_queue ? "ReadyQueue" : "std::set");

  struct Op {
    double key;
    sjs::JobId id;
    int kind;  // 0 = erase+push (re-key), 1 = pop+push (dispatch cycle)
  };
  sjs::Rng rng(10);
  std::vector<Op> ops(4096);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i] = {rng.uniform(0.0, 100.0),
              static_cast<sjs::JobId>(rng.below(occupancy)),
              static_cast<int>(rng.below(2))};
  }

  std::uint64_t processed = 0;
  if (use_ready_queue) {
    sjs::sched::ReadyQueue queue;
    queue.reserve(occupancy);
    for (std::size_t i = 0; i < occupancy; ++i) {
      queue.push(rng.uniform(0.0, 100.0), static_cast<sjs::JobId>(i));
    }
    for (auto _ : state) {
      for (const Op& op : ops) {
        if (op.kind == 0) {
          queue.erase(op.id);
          queue.push(op.key, op.id);
        } else {
          const auto popped = queue.pop();
          queue.push(op.key, popped.id);
        }
        benchmark::DoNotOptimize(queue.top().id);
      }
      processed += ops.size();
    }
  } else {
    std::set<std::pair<double, sjs::JobId>> queue;
    std::vector<double> key_of(occupancy);
    for (std::size_t i = 0; i < occupancy; ++i) {
      key_of[i] = rng.uniform(0.0, 100.0);
      queue.emplace(key_of[i], static_cast<sjs::JobId>(i));
    }
    for (auto _ : state) {
      for (const Op& op : ops) {
        if (op.kind == 0) {
          const auto idx = static_cast<std::size_t>(op.id);
          queue.erase({key_of[idx], op.id});
          key_of[idx] = op.key;
          queue.emplace(op.key, op.id);
        } else {
          const auto it = queue.begin();
          const sjs::JobId id = it->second;
          queue.erase(it);
          key_of[static_cast<std::size_t>(id)] = op.key;
          queue.emplace(op.key, id);
        }
        benchmark::DoNotOptimize(queue.begin()->second);
      }
      processed += ops.size();
    }
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(processed), benchmark::Counter::kIsRate);
}
// arg0 = standing occupancy, arg1 = container (0 = std::set, 1 = ReadyQueue).
BENCHMARK(BM_ReadyQueueChurn)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_EngineTimerChurn(benchmark::State& state) {
  // Worst-case timer pressure: adaptive-EWMA V-Dover re-arms every queued
  // job's 0cl timer at every capacity breakpoint, so a profile with
  // state.range(0) segments cancels and re-arms O(segments * queued) timers
  // per run. Exercises the generation-checked slab + lazy heap compaction;
  // on the old append-only slab this footprint grew without bound.
  const std::size_t segments = static_cast<std::size_t>(state.range(0));
  auto profile = make_profile(segments);
  const double span = profile.breakpoints().back();
  sjs::Rng rng(9);
  auto jobs = sjs::gen::generate_small_random_jobs(
      2 * segments, span, 7.0, 1.0, 2.0, rng);
  sjs::Instance instance(jobs, profile);
  sjs::sched::VDoverOptions options;
  options.adaptive_estimate = true;
  std::uint64_t timers = 0;
  double slab_slots = 0.0;
  double dead_peak = 0.0;
  for (auto _ : state) {
    sjs::sched::VDoverScheduler scheduler(options);
    sjs::sim::Engine engine(instance, scheduler);
    auto result = engine.run_to_completion();
    timers += result.timers_armed;
    slab_slots = std::max(slab_slots,
                          static_cast<double>(result.timer_slab_slots));
    dead_peak = std::max(dead_peak,
                         static_cast<double>(result.event_heap_dead_peak));
    benchmark::DoNotOptimize(result.completed_value);
  }
  state.counters["timers/s"] = benchmark::Counter(
      static_cast<double>(timers), benchmark::Counter::kIsRate);
  state.counters["slab_slots"] = slab_slots;
  state.counters["dead_peak"] = dead_peak;
}
BENCHMARK(BM_EngineTimerChurn)->Arg(64)->Arg(512)->Arg(2048);

// Holds `target` timers live at every instant: each fire re-arms itself and
// rotates (cancel + re-arm) one pseudo-random other timer. This is the
// standing-occupancy regime BM_EngineTimerChurn never reaches (its slab
// stays at a handful of slots): arm/cancel/fire against a population of
// `target` pending timers on the volatile heap, each costing an O(log n)
// sift, plus the O(n) compaction sweeps. No shipped scheduler holds more
// than one timer per queued job; the 512 and 4096 rows bound the cost far
// past that.
class StandingTimerScheduler final : public sjs::sim::Scheduler {
 public:
  StandingTimerScheduler(std::size_t target, double horizon, double step)
      : target_(target), horizon_(horizon), step_(step) {}

  void on_start(sjs::sim::Engine& engine) override {
    ids_.assign(target_, sjs::sim::kNoTimer);
    for (std::size_t i = 0; i < target_; ++i) {
      ids_[i] = engine.set_timer(jitter(), sjs::kNoJob,
                                 static_cast<int>(i));
    }
  }
  void on_timer(sjs::sim::Engine& engine, sjs::JobId, int tag) override {
    const auto self = static_cast<std::size_t>(tag);
    if (engine.now() >= horizon_) {
      ids_[self] = sjs::sim::kNoTimer;  // drain: stop re-arming
      return;
    }
    ids_[self] =
        engine.set_timer(engine.now() + jitter(), sjs::kNoJob, tag);
    const std::size_t other = next() % target_;
    if (other != self && ids_[other] != sjs::sim::kNoTimer) {
      engine.cancel_timer(ids_[other]);
      ids_[other] = engine.set_timer(engine.now() + jitter(), sjs::kNoJob,
                                     static_cast<int>(other));
    }
  }
  void on_release(sjs::sim::Engine&, sjs::JobId) override {}
  void on_complete(sjs::sim::Engine&, sjs::JobId) override {}
  void on_expire(sjs::sim::Engine&, sjs::JobId, bool) override {}
  std::string name() const override { return "standing-timer"; }

 private:
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  double jitter() {
    return step_ * (0.5 + static_cast<double>(next() % 1024) / 1024.0);
  }

  std::size_t target_;
  double horizon_;
  double step_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::vector<sjs::sim::TimerId> ids_;
};

void BM_EngineTimerOccupancy(benchmark::State& state) {
  // arg = standing timer occupancy. Each timer fires ~8 times before the
  // horizon, so one run is ~8 * occupancy fires and ~3x that many
  // arm/cancel operations, all against an occupancy-deep pending set.
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  auto profile = make_profile(16);
  const double span = profile.breakpoints().back();
  sjs::Rng rng(11);
  auto jobs = sjs::gen::generate_small_random_jobs(4, span, 7.0, 1.0, 2.0,
                                                   rng);
  sjs::Instance instance(jobs, profile);
  std::uint64_t timers = 0;
  double slab_slots = 0.0;
  for (auto _ : state) {
    StandingTimerScheduler scheduler(occupancy, span, span / 8.0);
    sjs::sim::Engine engine(instance, scheduler);
    auto result = engine.run_to_completion();
    timers += result.timers_armed;
    slab_slots = std::max(slab_slots,
                          static_cast<double>(result.timer_slab_slots));
    benchmark::DoNotOptimize(result.events_processed);
  }
  state.counters["timers/s"] = benchmark::Counter(
      static_cast<double>(timers), benchmark::Counter::kIsRate);
  state.counters["slab_slots"] = slab_slots;
}
BENCHMARK(BM_EngineTimerOccupancy)->Arg(64)->Arg(512)->Arg(4096);

void BM_ExactOffline(benchmark::State& state) {
  sjs::Rng rng(6);
  auto profile = make_profile(16);
  auto jobs = sjs::gen::generate_small_random_jobs(
      static_cast<std::size_t>(state.range(0)), 10.0, 7.0, 1.0, 2.0, rng);
  sjs::Instance instance(jobs, profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sjs::offline::exact_offline_value(instance));
  }
}
BENCHMARK(BM_ExactOffline)->Arg(8)->Arg(12);

void BM_PaperInstanceGeneration(benchmark::State& state) {
  sjs::gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = 2000.0;
  std::uint64_t run = 0;
  for (auto _ : state) {
    sjs::Rng rng(7, run++);
    benchmark::DoNotOptimize(sjs::gen::generate_paper_instance(setup, rng));
  }
}
BENCHMARK(BM_PaperInstanceGeneration);

void BM_ProtocolCodec(benchmark::State& state) {
  // Full SUBMIT→ACCEPTED wire round-trip: encode both frames, then feed the
  // byte stream through a FrameDecoder — the per-request codec cost of the
  // admission service's hot path (tools/sjs_serve).
  sjs::Rng rng(8);
  std::vector<sjs::serve::Message> submits(
      static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < submits.size(); ++i) {
    submits[i].type = sjs::serve::MsgType::kSubmit;
    submits[i].seq = i;
    submits[i].a = rng.exponential_mean(0.02);
    submits[i].b = rng.uniform(0.1, 1.0);
    submits[i].c = rng.uniform(1.0, 7.0);
  }
  std::vector<std::uint8_t> stream;
  std::uint64_t decoded = 0;
  for (auto _ : state) {
    stream.clear();
    for (const auto& m : submits) {
      sjs::serve::append_frame(stream, m);
      sjs::serve::Message ack;
      ack.type = sjs::serve::MsgType::kAccepted;
      ack.seq = m.seq;
      ack.ticket = m.seq;
      ack.a = m.a;
      sjs::serve::append_frame(stream, ack);
    }
    sjs::serve::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    sjs::serve::Message out;
    while (decoder.next(out) == sjs::serve::FrameDecoder::Status::kOk) {
      ++decoded;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decoded));
}
BENCHMARK(BM_ProtocolCodec)->Arg(64)->Arg(1024);

void BM_ChannelThroughput(benchmark::State& state) {
  // Single-producer/single-consumer drain of the bounded FIFO channel the
  // sharded plane forwards every request through (src/conc/channel.hpp):
  // arg(0) messages pushed with try_send and popped back per iteration,
  // capacity pinned at the sjs_serve default (1024). Measures the per-message
  // channel overhead — lock, ring move, and coalesced wakeup — without
  // thread-scheduling noise.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sjs::conc::Channel<sjs::serve::ShardRequest> channel(1024);
  sjs::serve::ShardRequest req;
  req.kind = sjs::serve::ShardRequest::Kind::kSubmit;
  std::uint64_t moved = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      req.ticket = i;
      while (channel.try_send(req) != sjs::conc::SendStatus::kOk) {
        sjs::serve::ShardRequest out;
        while (channel.try_pop(out) == sjs::conc::PopStatus::kOk) ++moved;
      }
    }
    channel.drain_wakeups();
    sjs::serve::ShardRequest out;
    while (channel.try_pop(out) == sjs::conc::PopStatus::kOk) ++moved;
    benchmark::DoNotOptimize(moved);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_ChannelThroughput)->Arg(256)->Arg(4096);

void BM_LintFullTree(benchmark::State& state) {
  // Cold full-tree static analysis: every src/tools/bench file lexed,
  // indexed, and pushed through the cross-TU phase (call graph, taint
  // propagation, include cycles) with no on-disk cache. This is the
  // worst-case latency of the CI lint job on a cache miss; the BENCH target
  // keeps it under ~5 s so the gate never becomes the slow part of CI.
  sjs::lint::AnalyzerOptions options;
  options.root = SJS_SOURCE_ROOT;
  options.inputs = {SJS_SOURCE_ROOT "/src", SJS_SOURCE_ROOT "/tools",
                    SJS_SOURCE_ROOT "/bench"};
  std::size_t files = 0;
  std::size_t diags = 0;
  for (auto _ : state) {
    const sjs::lint::AnalyzerResult result = sjs::lint::run_analyzer(options);
    files = result.files_analyzed;
    diags = result.diags.size();
    benchmark::DoNotOptimize(diags);
  }
  state.counters["files"] = static_cast<double>(files);
  state.counters["diags"] = static_cast<double>(diags);
}
BENCHMARK(BM_LintFullTree)->Unit(benchmark::kMillisecond);

}  // namespace
