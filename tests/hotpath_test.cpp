// Long-run bounded-memory regression for the engine hot paths.
//
// The adaptive-EWMA V-Dover configuration is the engine's worst timer
// customer: every capacity breakpoint cancels and re-arms one 0-claxity
// timer per queued job. Over a profile with hundreds of breakpoints the
// pre-slab engine grew its timer table and event heap linearly with the
// number of set_timer calls (the table was append-only, and cancelled
// events were left dead in the heap until their expiry popped). These tests
// pin the bounded-memory contract of engine.hpp: slab slots stay O(max
// simultaneously live timers) and the dead fraction of the heap stays below
// the compaction threshold, no matter how many timers a run arms.
#include <gtest/gtest.h>


#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "cloud/global_sched.hpp"
#include "cloud/multi_engine.hpp"
#include "cloud/ranked_live_set.hpp"
#include "cluster/cluster_journal.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "jobs/bundle.hpp"
#include "jobs/instance.hpp"
#include "jobs/workload_gen.hpp"
#include "obs/metrics.hpp"
#include "loopback_client.hpp"
#include "temp_path.hpp"
#include "sched/factory.hpp"
#include "sched/vdover.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sharded_server.hpp"
#include "sim/engine.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Many-breakpoint profile oscillating in [1, 4] with mean sojourn
/// `mean_sojourn` — dense capacity changes, little service capacity, so an
/// aggressive arrival stream keeps a standing Qother queue (each queued job
/// holds one armed 0cl timer that every breakpoint cancels and re-arms).
cap::CapacityProfile make_choppy_profile(std::size_t segments,
                                         double mean_sojourn, Rng& rng) {
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(1.0, 4.0)};
  for (std::size_t i = 1; i < segments; ++i) {
    times.push_back(times.back() + rng.exponential_mean(mean_sojourn));
    rates.push_back(rng.uniform(1.0, 4.0));
  }
  return {std::move(times), std::move(rates)};
}

/// V-Dover with the engine's occupancy sampled at every capacity
/// breakpoint — the instants right after the scheduler's own timer churn.
class ProbedVDover : public sched::VDoverScheduler {
 public:
  explicit ProbedVDover(const sched::VDoverOptions& options)
      : sched::VDoverScheduler(options) {}

  void on_capacity_change(sim::Engine& engine) override {
    sched::VDoverScheduler::on_capacity_change(engine);
    max_live_timers_ =
        std::max(max_live_timers_, engine.live_timer_count());
    max_slab_size_ = std::max(max_slab_size_, engine.timer_slab_size());
    const std::size_t queued = engine.queued_event_count();
    const std::size_t dead = engine.dead_event_count();
    max_dead_events_ = std::max(max_dead_events_, dead);
    if (queued >= sim::Engine::kCompactionMinEvents) {
      max_dead_fraction_ = std::max(
          max_dead_fraction_,
          static_cast<double>(dead) / static_cast<double>(queued));
    }
    ++samples_;
  }

  std::size_t max_live_timers_ = 0;
  std::size_t max_slab_size_ = 0;
  std::size_t max_dead_events_ = 0;
  double max_dead_fraction_ = 0.0;
  std::size_t samples_ = 0;
};

TEST(HotPathBoundedMemory, TimerSlabAndHeapStayBoundedUnderEwmaChurn) {
  // A 3x-overloaded arrival stream against 512 capacity breakpoints:
  // thousands of timer arms, only a few dozen ever live at once.
  Rng rng(2024);
  auto profile = make_choppy_profile(512, 0.2, rng);  // span ~100
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(800, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;
  ProbedVDover scheduler(options);
  sim::Engine engine(instance, scheduler);
  auto result = engine.run_to_completion();

  // The probe actually sampled the churn (every breakpoint inside the run).
  ASSERT_GT(scheduler.samples_, 400u);
  ASSERT_GT(result.timers_armed, 1000u);

  // Slab slots are bounded by peak simultaneous liveness, not by the arm
  // count. The pre-slab engine kept one record per set_timer call, so this
  // bound is the regression: slots would equal timers_armed there. (The
  // probe samples only at breakpoints, so it may miss the exact peak
  // instant — it lower-bounds the engine's own accounting.)
  EXPECT_GE(result.timer_slab_peak,
            static_cast<std::uint64_t>(scheduler.max_live_timers_));
  EXPECT_LE(result.timer_slab_peak, result.timer_slab_slots);
  EXPECT_LE(result.timer_slab_slots, instance.size() + 4);
  EXPECT_LT(result.timer_slab_slots, result.timers_armed / 10);
  EXPECT_LE(scheduler.max_slab_size_, instance.size() + 4);

  // Dead (cancelled / stale) events never dominate the heap: compaction
  // keeps the dead fraction at most ~half once the heap is big enough for
  // compaction to be worthwhile, plus slack for the events added between
  // threshold crossings.
  EXPECT_LE(scheduler.max_dead_fraction_, 0.75);
  EXPECT_LE(static_cast<std::uint64_t>(scheduler.max_dead_events_),
            result.event_heap_peak);

  // The mechanism engaged (this workload cancels far more than it fires)
  // and the run still terminated with an empty slab.
  EXPECT_GE(result.heap_compactions, 1u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
  EXPECT_EQ(engine.dead_event_count(), 0u);
}

TEST(HotPathBoundedMemory, ReadyQueueStorageStaysBoundedUnderChurn) {
  // The same churn-heavy workload through V-Dover's three ReadyQueues: the
  // entry storage each run reserves must be bounded by the occupancy peak
  // (plus geometric-growth slack), never by the number of queue operations,
  // and identical replays must report identical occupancy. Runs on a fresh
  // thread so the queues' thread-local buffer recycler starts empty —
  // otherwise buffers donated by other tests in this process would inflate
  // the slot accounting this test bounds.
  std::thread worker([] {
  Rng rng(2026);
  auto profile = make_choppy_profile(128, 0.2, rng);
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(400, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;

  std::uint64_t first_peak = 0;
  std::uint64_t first_slots = 0;
  std::optional<sim::Engine> engine;
  for (int run = 0; run < 6; ++run) {
    sched::VDoverScheduler scheduler(options);
    if (engine) {
      engine->reset(scheduler);
    } else {
      engine.emplace(instance, scheduler);
    }
    auto result = engine->run_to_completion();

    // The workload actually exercises the queues...
    ASSERT_GT(result.queue_peak, 0u);
    // ...and storage is occupancy-bound: reserve() sizes each of the three
    // queues to at most the instance size, so the summed peak and slot
    // counts can never exceed 3n no matter how many operations ran.
    EXPECT_LE(result.queue_peak,
              3 * static_cast<std::uint64_t>(instance.size()));
    EXPECT_LE(result.queue_slots,
              3 * static_cast<std::uint64_t>(instance.size()));
    EXPECT_GE(result.queue_slots, result.queue_peak);

    if (run == 0) {
      first_peak = result.queue_peak;
      first_slots = result.queue_slots;
    } else {
      // Identical replay => identical occupancy accounting (this is what
      // the sched.queue.* gauges aggregate).
      EXPECT_EQ(result.queue_peak, first_peak);
      EXPECT_EQ(result.queue_slots, first_slots);
    }
  }
  });
  worker.join();
}

TEST(HotPathBoundedMemory, RepeatedResetDoesNotGrowSlab) {
  // Replay the same churn-heavy instance many times on ONE engine (the
  // Monte-Carlo reuse path): per-run occupancy must not creep run over run.
  Rng rng(2025);
  auto profile = make_choppy_profile(128, 0.2, rng);
  const double horizon = profile.breakpoints().back();
  auto jobs = gen::generate_small_random_jobs(200, horizon, 7.0, 1.0, 3.0,
                                              rng);
  Instance instance(std::move(jobs), profile);

  sched::VDoverOptions options;
  options.adaptive_estimate = true;

  std::uint64_t first_slots = 0;
  std::uint64_t first_heap_peak = 0;
  std::optional<sim::Engine> engine;
  for (int run = 0; run < 8; ++run) {
    sched::VDoverScheduler scheduler(options);
    if (engine) {
      engine->reset(scheduler);
    } else {
      engine.emplace(instance, scheduler);
    }
    auto result = engine->run_to_completion();
    if (run == 0) {
      first_slots = result.timer_slab_slots;
      first_heap_peak = result.event_heap_peak;
    } else {
      // reset() rewinds; identical replay means identical occupancy.
      EXPECT_EQ(result.timer_slab_slots, first_slots);
      EXPECT_EQ(result.event_heap_peak, first_heap_peak);
    }
    EXPECT_EQ(engine->live_timer_count(), 0u);
  }
}

TEST(HotPathAllocations, SteadyStateReplayAllocationRatchet) {
  // Runtime twin of sjs_lint's alloc-in-hot-path rule: that rule's report is
  // the static work-list of allocation sites reachable from the hot-path
  // roots; this test measures how many of them actually FIRE during a warmed
  // steady-state replay, via global operator-new interposition (AllocProbe,
  // linked into this binary only).
  //
  // Protocol: run the instance once cold (tables, slabs, and queues size
  // themselves), DESTROY the cold scheduler so its ReadyQueue buffers return
  // to the thread-local recycler, rebind a fresh scheduler with reset(), then
  // count every allocation of the second, fully warmed replay — including
  // the fresh scheduler's on_start, whose buffers must come back out of the
  // recycler and the engine's slab lanes. The ratchet is ZERO: the warmed
  // hot path owns no allocation site at all (the static twin,
  // `sjs_lint --report=alloc --max=0`, holds the same line at the source
  // level). Runs on a fresh thread so the recycler starts empty and the
  // count does not depend on which tests ran earlier in this process.
  std::uint64_t steady_count = 0;
  std::uint64_t steady_bytes = 0;
  std::thread worker([&] {
    Rng rng(2027);
    auto profile = make_choppy_profile(128, 0.2, rng);
    const double horizon = profile.breakpoints().back();
    auto jobs = gen::generate_small_random_jobs(400, horizon, 7.0, 1.0, 3.0,
                                                rng);
    Instance instance(std::move(jobs), profile);

    sched::VDoverOptions options;
    options.adaptive_estimate = true;

    std::optional<sim::Engine> engine;
    std::uint64_t cold_timers_armed = 0;
    {
      sched::VDoverScheduler cold_scheduler(options);
      engine.emplace(instance, cold_scheduler);
      const auto& cold = engine->run_to_completion();
      ASSERT_GT(cold.timers_armed, 100u);  // the warm-up exercised the paths
      cold_timers_armed = cold.timers_armed;
    }  // cold scheduler's queue buffers -> thread-local recycler

    sched::VDoverScheduler warm_scheduler(options);
    engine->reset(warm_scheduler);
    util::AllocProbe::reset();
    const auto& warm = engine->run_to_completion();
    steady_count = util::AllocProbe::count();
    steady_bytes = util::AllocProbe::bytes();
    ASSERT_EQ(warm.timers_armed, cold_timers_armed);  // identical replay
  });
  worker.join();

  // The zero-allocation steady state (docs/performance.md): a warmed replay
  // allocates NOTHING. Any regression here names its site in
  // `sjs_lint --report=alloc`.
  constexpr std::uint64_t kSteadyStateAllocRatchet = 0;
  RecordProperty("steady_state_allocs", static_cast<int>(steady_count));
  RecordProperty("steady_state_bytes", static_cast<int>(steady_bytes));
  std::fprintf(stderr, "steady-state replay: %llu allocations, %llu bytes\n",
               static_cast<unsigned long long>(steady_count),
               static_cast<unsigned long long>(steady_bytes));
  EXPECT_LE(steady_count, kSteadyStateAllocRatchet);
}

/// What the measured steady phase of one serve-session probe did.
struct ServeProbe {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t accepts = 0;
  std::uint64_t notifications = 0;
};

/// Job shapes for a probe: exponential workloads of mean `mean_workload`,
/// windows sized against the admission floor `floor` (every 10th one
/// deliberately inadmissible), Poisson arrivals per virtual second.
/// `step_ms` is the poll the client grants each server step (the sharded
/// plane needs 1 ms for shard replies to wake the acceptor).
struct ProbeShape {
  double floor;
  double mean_workload;
  double warm_rate;
  double steady_rate;
  int step_ms;
};

/// Boots `make_server(clock)` on a fresh thread (so the ready queues'
/// thread-local recycler starts empty), warms it with an overloaded burst
/// that exercises accept, reject, completion and expiry, then counts the
/// heap allocations of a second, lighter burst. The whole session is
/// deterministic (FakeClock + seeded Rng) up to shard thread timing.
template <typename MakeServer>
ServeProbe probe_steady_serve_session(const ProbeShape& shape,
                                      MakeServer make_server) {
  ServeProbe out;
  std::thread worker([&] {
    serve::FakeClock clock;
    auto server = make_server(clock);
    const int port = server->start();
    testutil::LoopbackClient client(port, /*record=*/false);

    Rng rng(2028);
    std::uint64_t seq = 0;
    const auto submit = [&](double workload, double window) {
      serve::Message m;
      m.type = serve::MsgType::kSubmit;
      m.seq = ++seq;
      m.a = workload;
      m.b = window;
      m.c = workload;
      client.send(m);
      client.await_seq(*server, seq, shape.step_ms);
    };
    const auto pump_one = [&](double arrival_rate) {
      clock.advance(rng.exponential_rate(arrival_rate));
      const double workload = rng.exponential_mean(shape.mean_workload);
      const bool sabotage = (seq % 10) == 9;
      submit(workload, sabotage
                           ? 0.5 * workload / shape.floor
                           : rng.uniform(1.05, 3.0) * workload / shape.floor);
    };
    const auto settle = [&] {
      clock.advance(5.0);
      for (int i = 0; i < 50; ++i) {
        server->step(shape.step_ms);
        client.read_socket();
      }
    };

    // Warm-up: the overloaded burst sizes every buffer past what the
    // measured phase needs.
    for (int i = 0; i < 120; ++i) pump_one(shape.warm_rate);
    settle();
    // Then the largest reply burst the measured phase could ever see: 128
    // small long-window jobs (more than it admits in total) are admitted at
    // one instant and all resolve in the next pump. The sharded plane's
    // shard threads push their notifications while the acceptor sleeps, so
    // the acceptor queues them in one go and its write buffer and the
    // client's decoder reach a high-water that no batching of the measured
    // phase's replies can exceed. (Its own Rng keeps the measured phase's
    // job stream unchanged.)
    Rng flood_rng(7);
    for (int i = 0; i < 128; ++i) {
      const double workload =
          0.1 * flood_rng.exponential_mean(shape.mean_workload);
      submit(workload, 100.0 * workload / shape.floor);
    }
    clock.advance(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    settle();
    ASSERT_GT(client.accepted, 0u);
    ASSERT_GT(client.rejected, 0u);
    ASSERT_GT(client.completed, 0u);

    const std::uint64_t warm_accepts = client.accepted;
    const std::uint64_t warm_notes = client.completed + client.expired;
    util::AllocProbe::reset();
    for (int i = 0; i < 120; ++i) pump_one(shape.steady_rate);
    settle();
    out.allocs = util::AllocProbe::count();
    out.bytes = util::AllocProbe::bytes();
    out.accepts = client.accepted - warm_accepts;
    out.notifications = client.completed + client.expired - warm_notes;
    // Teardown (drain, finalize) happens after the probe window on purpose:
    // the zero-allocation contract covers the steady state, not shutdown.
  });
  worker.join();
  return out;
}

void expect_allocation_free(const char* mode, const ServeProbe& probe) {
  // The measured phase did real admission work...
  EXPECT_GT(probe.accepts, 50u) << mode;
  EXPECT_GT(probe.notifications, 50u) << mode;
  // ...and allocated nothing at all.
  std::fprintf(stderr, "steady-state serve (%s): %llu allocations, %llu bytes\n",
               mode, static_cast<unsigned long long>(probe.allocs),
               static_cast<unsigned long long>(probe.bytes));
  EXPECT_EQ(probe.allocs, 0u) << mode;
}

TEST(HotPathAllocations, FrameDecoderTakesAFullReadWithoutGrowing) {
  // Both ends of every serving connection feed a FrameDecoder one recv at a
  // time (FrontEnd::on_data, LoopbackClient::read_socket). A warmed decoder
  // whose consumed prefix sits just under 4096 bytes then receives one full
  // 4096-byte read: it must take it in the room reserved at construction,
  // whatever the high-water of the reads before it.
  serve::Message submit;
  submit.type = serve::MsgType::kSubmit;
  submit.a = 1.0;
  submit.b = 2.0;
  submit.c = 3.0;
  const std::vector<std::uint8_t> frame = serve::encode_frame(submit);
  constexpr std::size_t kRead = serve::FrameDecoder::kMaxRead;

  serve::FrameDecoder decoder;
  serve::Message out;
  std::size_t consumed = 0;
  while (consumed + 2 * frame.size() < 4096) {
    decoder.feed(frame.data(), frame.size());
    ASSERT_EQ(decoder.next(out), serve::FrameDecoder::Status::kOk);
    consumed += frame.size();
  }
  ASSERT_EQ(decoder.next(out), serve::FrameDecoder::Status::kNeedMore);

  // Whole frames, then the head of one more: a read that ends mid-frame.
  std::vector<std::uint8_t> burst;
  while (burst.size() + frame.size() <= kRead) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  const std::size_t whole = burst.size() / frame.size();
  burst.insert(burst.end(), frame.begin(),
               frame.begin() + static_cast<std::ptrdiff_t>(kRead - burst.size()));
  ASSERT_EQ(burst.size(), kRead);

  std::size_t decoded = 0;
  util::AllocProbe::reset();
  decoder.feed(burst.data(), burst.size());
  while (decoder.next(out) == serve::FrameDecoder::Status::kOk) ++decoded;
  const std::uint64_t allocs = util::AllocProbe::count();
  EXPECT_EQ(decoded, whole);
  EXPECT_EQ(allocs, 0u);
}

/// The steady-serve probe in all three modes, each front end given
/// `metrics` (null: no registry).
void expect_steady_serve_allocation_free(obs::MetricsRegistry* metrics,
                                         const char* label) {
  constexpr double kBandLo = 0.5;
  constexpr double kBandHi = 1.0;
  serve::ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = cap::CapacityProfile(1.0);
  config.c_lo = kBandLo;
  config.c_hi = kBandHi;
  const auto lineup = sched::full_lineup(kBandLo, kBandHi);
  const auto* factory = sched::find_factory(lineup, "V-Dover");
  ASSERT_NE(factory, nullptr);
  const std::string mode = label;

  const ServeProbe single = probe_steady_serve_session(
      {kBandLo, 0.05, 20.0, 10.0, 0}, [&](serve::FakeClock& clock) {
        return std::make_unique<serve::AdmissionServer>(
            config, factory->make(), clock, metrics);
      });
  expect_allocation_free((mode + "single").c_str(), single);

  serve::ServerConfig sharded = config;
  sharded.shards = 2;
  sharded.shard_poll_ms = 5;  // shard threads re-check the FakeClock promptly
  expect_allocation_free(
      (mode + "sharded").c_str(),
      probe_steady_serve_session(
          {kBandLo, 0.05, 20.0, 10.0, 1}, [&](serve::FakeClock& clock) {
            return std::make_unique<serve::ShardedAdmissionServer>(
                sharded, [&] { return factory->make(); }, clock, metrics);
          }));

  // The fleet: three speed classes over a tight base band, so admission
  // windows are short and the warm-up burst expires jobs too.
  cluster::ClusterServerConfig fleet;
  fleet.fleet = cluster::Fleet();
  fleet.fleet.add(cluster::ServerSpec{30.0, 35.0, 2.0, 2.2});
  fleet.fleet.add(cluster::ServerSpec{30.0, 35.0, 1.0, 1.0});
  fleet.fleet.add(cluster::ServerSpec{30.0, 35.0, 0.5, 0.45});
  fleet.rental = "threshold";
  expect_allocation_free(
      (mode + "fleet").c_str(),
      probe_steady_serve_session(
          {fleet.fleet.admission_c_lo(), 40.0, 4.0, 2.0, 0},
          [&](serve::FakeClock& clock) {
            return std::make_unique<cluster::ClusterServer>(fleet, clock,
                                                            metrics);
          }));
}

TEST(HotPathAllocations, SteadyStateServeSessionAllocationFree) {
  // The live-mode twin of the replay ratchet above, in every serving mode:
  // a warmed FakeClock session — submits, accept/reject decisions,
  // completion and expiry notifications, reply encoding, the poll loop, and
  // for the sharded plane the channel hops both ways — performs zero heap
  // allocations. start() pre-sizes the slab, the job window (reply routes
  // included), and the notification buffers from --max-in-flight; the
  // warm-up grows everything else (socket buffers, decoders) to its
  // steady-state high-water. No journal, no metrics: the probe measures the
  // serve core itself, as sjs_serve runs it without --metrics.
  expect_steady_serve_allocation_free(nullptr, "");
}

TEST(HotPathAllocations, SteadyStateServeSessionWithMetricsAllocationFree) {
  // The same probe with a metrics registry attached, as sjs_serve --metrics
  // runs it: the server.* counters, the wake-lateness histogram and the
  // trace-to-metrics bridge (its stamp table included) are warmed by the
  // first burst, so the measured phase allocates nothing either.
  obs::MetricsRegistry registry;
  expect_steady_serve_allocation_free(&registry, "metrics ");
}

/// Replays the single-engine journal at `dir` and compares its outcomes.csv
/// with the live session's, byte for byte.
void expect_single_replay(const std::string& dir,
                          const sched::NamedFactory& factory) {
  const Instance replayed = load_instance_bundle(dir);
  auto replay_scheduler = factory.make();
  sim::Engine engine(replayed, *replay_scheduler);
  const sim::SimResult replay = engine.run_to_completion();
  const std::string replay_csv = dir + "_replay.csv";
  sim::save_outcomes_csv(replay, replayed.jobs(), replay_csv);
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_csv));
}

/// The same for a fleet journal.
void expect_fleet_replay(const std::string& dir) {
  const cluster::ClusterBundle bundle = cluster::load_cluster_bundle(dir);
  cluster::Dispatcher dispatcher(
      bundle.fleet, cluster::DispatcherConfig{},
      cluster::make_rental_controller(bundle.meta.at("rental")));
  const cloud::MultiSimResult replay =
      cluster::run_cluster(bundle.jobs, bundle.paths, dispatcher);
  const std::string replay_csv = dir + "_replay.csv";
  cloud::save_multi_outcomes_csv(replay, bundle.jobs, replay_csv);
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_csv));
}

/// The window rule (sim/job_table.hpp): a ring below its reservation
/// doubles from C slots only while more than C/2 jobs are pending, so it
/// ends at most max(16, 4 x the session's in-flight peak).
void expect_window_follows_jobs(const char* mode, std::size_t slots,
                                std::uint64_t in_flight_peak) {
  EXPECT_LE(slots, std::max<std::uint64_t>(16, 4 * in_flight_peak))
      << mode << ": " << in_flight_peak << " in flight at the peak";
}

/// What a long session through a small job window shows.
struct WindowProbe {
  std::uint64_t allocs = 0;    ///< heap allocations after warm-up
  std::uint64_t accepted = 0;  ///< admissions after warm-up
};

/// Boots `make_server(clock)` with --max-in-flight=kWindowSessionSlots and a
/// journal on a fresh thread, warms it up, then counts the allocations of a
/// session that admits more than 50 times that many jobs at a light load
/// (jobs resolve roughly in admission order, so the unretired span stays
/// within the pre-size). Drains the server and hands it to `inspect`.
constexpr std::uint64_t kWindowSessionSlots = 64;

template <typename MakeServer, typename Inspect>
WindowProbe probe_long_window_session(int step_ms, MakeServer make_server,
                                      Inspect inspect) {
  WindowProbe out;
  std::thread worker([&] {
    constexpr double kFloor = 0.5;
    serve::FakeClock clock;
    auto server = make_server(clock);
    const int port = server->start();
    testutil::LoopbackClient client(port, /*record=*/false);
    Rng rng(2031);
    std::uint64_t seq = 0;
    const auto submit_one = [&] {
      clock.advance(rng.exponential_rate(10.0));
      const double workload = rng.exponential_mean(0.05);
      const bool sabotage = (seq % 10) == 9;
      serve::Message m;
      m.type = serve::MsgType::kSubmit;
      m.seq = ++seq;
      m.a = workload;
      m.b = sabotage ? 0.5 * workload / kFloor
                     : rng.uniform(1.05, 3.0) * workload / kFloor;
      m.c = workload;
      client.send(m);
      client.await_seq(*server, seq, step_ms);
    };
    const auto settle = [&] {
      clock.advance(5.0);
      for (int i = 0; i < 50; ++i) {
        server->step(step_ms);
        client.read_socket();
      }
    };
    for (int i = 0; i < 400; ++i) submit_one();
    settle();
    // The largest reply burst the session can see: a full window of jobs
    // admitted at one instant, all resolving in the next pump (the sharded
    // acceptor queues a shard's burst in one go), so the write buffers
    // reach their high-water before the count starts.
    for (std::uint64_t i = 0; i < kWindowSessionSlots; ++i) {
      serve::Message m;
      m.type = serve::MsgType::kSubmit;
      m.seq = ++seq;
      m.a = 0.001;
      m.b = 1.0;
      m.c = 0.001;
      client.send(m);
      client.await_seq(*server, seq, step_ms);
    }
    clock.advance(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    settle();
    const std::uint64_t warm_accepts = client.accepted;
    util::AllocProbe::reset();
    for (int i = 0; i < 3700; ++i) submit_one();
    settle();
    out.allocs = util::AllocProbe::count();
    out.accepted = client.accepted - warm_accepts;

    serve::Message drain;
    drain.type = serve::MsgType::kDrain;
    drain.seq = ++seq;
    client.send(drain);
    while (server->step(step_ms)) client.read_socket();
    inspect(*server);
  });
  worker.join();
  return out;
}

TEST(HotPathAllocations, LongSessionStaysInsideItsJobWindow) {
  // The bounded-memory contract of the job window (sim/job_table.hpp,
  // serve/session.hpp): a session admitting far more jobs than
  // --max-in-flight retires them as they resolve, so its tables never grow
  // past the pre-size and a warmed session allocates nothing, however long
  // it runs — outcomes.csv rows included (the journal is on).
  serve::ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = cap::CapacityProfile(1.0);
  config.c_lo = 0.5;
  config.c_hi = 1.0;
  config.max_in_flight = kWindowSessionSlots;
  const auto lineup = sched::full_lineup(config.c_lo, config.c_hi);
  const auto* factory = sched::find_factory(lineup, "V-Dover");
  ASSERT_NE(factory, nullptr);

  const std::string single_dir = testutil::fresh_dir("window_single");
  config.journal_dir = single_dir;
  const WindowProbe single = probe_long_window_session(
      0,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::AdmissionServer>(
            config, factory->make(), clock);
      },
      [&](const serve::AdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_window_follows_jobs("single", server.window_slots(),
                                   server.in_flight_peak());
        EXPECT_LE(server.window_slots(), kWindowSessionSlots);
        EXPECT_LE(server.window_peak(), kWindowSessionSlots);
        EXPECT_EQ(server.engine().job_state().capacity(),
                  server.window_slots());
        EXPECT_GT(server.engine().job_state().base(), 3600);
        EXPECT_EQ(server.result().completed_count +
                      server.result().expired_count,
                  static_cast<std::uint64_t>(
                      server.engine().job_state().end()));
      });
  std::fprintf(stderr, "long window session (single): %llu admitted, "
               "%llu allocations\n",
               static_cast<unsigned long long>(single.accepted),
               static_cast<unsigned long long>(single.allocs));
  EXPECT_GE(single.accepted, 50 * kWindowSessionSlots);
  EXPECT_EQ(single.allocs, 0u);

  // The streamed outcomes.csv still equals a replay's, byte for byte.
  expect_single_replay(single_dir, *factory);

  serve::ServerConfig sharded = config;
  sharded.shards = 2;
  sharded.shard_poll_ms = 5;
  sharded.journal_dir = testutil::fresh_dir("window_sharded");
  const WindowProbe two = probe_long_window_session(
      1,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::ShardedAdmissionServer>(
            sharded, [&] { return factory->make(); }, clock);
      },
      [&](const serve::ShardedAdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        // The acceptor splits the warm-up burst between the shards, so a
        // shard's ring widens only as far as its share of it.
        for (std::size_t k = 0; k < server.shard_count(); ++k) {
          expect_window_follows_jobs("sharded", server.shard(k).window_slots(),
                                     server.shard(k).in_flight_peak());
          EXPECT_LE(server.shard(k).window_slots(), kWindowSessionSlots);
          EXPECT_EQ(server.shard(k).window_reserved(), kWindowSessionSlots);
          EXPECT_LE(server.shard(k).window_peak(), kWindowSessionSlots);
        }
      });
  std::fprintf(stderr, "long window session (sharded): %llu admitted, "
               "%llu allocations\n",
               static_cast<unsigned long long>(two.accepted),
               static_cast<unsigned long long>(two.allocs));
  EXPECT_GE(two.accepted, 50 * kWindowSessionSlots);
  EXPECT_EQ(two.allocs, 0u);
}

TEST(HotPathAllocations, LongFleetSessionStaysInsideItsJobWindow) {
  // The same contract on the fleet (sjs_serve --cluster=4):
  // cloud::MultiEngine keeps its per-job state in the same sim::JobTable
  // window as the single engine, so a session admitting far more jobs than
  // --max-in-flight retires them as they resolve, its engine window stays
  // at the pre-size, and a warmed session allocates nothing — its streamed
  // outcomes.csv rows included.
  cluster::ClusterServerConfig config;
  config.fleet = cluster::Fleet::heterogeneous(4);
  config.rental = "threshold";
  config.max_in_flight = kWindowSessionSlots;
  config.journal_dir = testutil::fresh_dir("window_fleet");
  const WindowProbe fleet = probe_long_window_session(
      0,
      [&](serve::FakeClock& clock) {
        return std::make_unique<cluster::ClusterServer>(config, clock);
      },
      [&](const cluster::ClusterServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_window_follows_jobs("fleet", server.window_slots(),
                                   server.in_flight_peak());
        EXPECT_LE(server.window_slots(), kWindowSessionSlots);
        EXPECT_LE(server.window_peak(), kWindowSessionSlots);
        const sim::JobTable& window = server.engine().job_state();
        EXPECT_EQ(window.capacity(), server.window_slots());
        EXPECT_GT(window.base(), 3600);
        EXPECT_EQ(window.base(), window.end());
        EXPECT_EQ(server.result().completed_count +
                      server.result().expired_count,
                  static_cast<std::uint64_t>(window.end()));
      });
  std::fprintf(stderr, "long window session (fleet): %llu admitted, "
               "%llu allocations\n",
               static_cast<unsigned long long>(fleet.accepted),
               static_cast<unsigned long long>(fleet.allocs));
  EXPECT_GE(fleet.accepted, 50 * kWindowSessionSlots);
  EXPECT_EQ(fleet.allocs, 0u);

  // The streamed outcomes.csv still equals a replay's, byte for byte.
  expect_fleet_replay(config.journal_dir);
}

/// What a session whose stragglers outlive the job window shows.
struct StragglerProbe {
  std::uint64_t allocs = 0;    ///< heap allocations after warm-up
  std::uint64_t accepted = 0;  ///< admissions after warm-up
};

/// --max-in-flight of the straggler sessions: far below their span.
constexpr std::uint64_t kStragglerSessionSlots = 16;

/// Boots `make_server(clock)` with --max-in-flight=kStragglerSessionSlots,
/// no admission check and a journal, on a fresh thread, and drives it with
/// a heavy-tailed stream: short jobs (the sjs_load shape, windows a slack
/// times an exponential workload over the floor) at 10/s, and every 100th
/// job a tail job with far more work than any machine can serve in its
/// 30 s window, so it stays unresolved for 300 arrivals and then expires.
/// The warm-up's one tail job lives 60 s, so the held outcome rows reach a
/// high-water the measured phase never exceeds. Counts the allocations of
/// the measured phase, then drains the server and hands it to `inspect`.
template <typename MakeServer, typename Inspect>
StragglerProbe probe_straggler_session(double floor, int step_ms,
                                       MakeServer make_server,
                                       Inspect inspect) {
  StragglerProbe out;
  std::thread worker([&] {
    serve::FakeClock clock;
    auto server = make_server(clock);
    const int port = server->start();
    testutil::LoopbackClient client(port, /*record=*/false);
    Rng rng(2032);
    std::uint64_t seq = 0;
    const auto submit = [&](double workload, double window) {
      serve::Message m;
      m.type = serve::MsgType::kSubmit;
      m.seq = ++seq;
      m.a = workload;
      m.b = window;
      m.c = 1.0;
      client.send(m);
      client.await_seq(*server, seq, step_ms);
    };
    const auto submit_one = [&](double tail_window) {
      clock.advance(rng.exponential_rate(10.0));
      if (seq % 100 == 99) {
        submit(1.0e4 * floor, tail_window);
        return;
      }
      const double workload = rng.exponential_mean(0.03 * floor);
      submit(workload, rng.uniform(1.05, 3.0) * workload / floor);
    };
    const auto settle = [&] {
      clock.advance(5.0);
      for (int i = 0; i < 50; ++i) {
        server->step(step_ms);
        client.read_socket();
      }
    };
    for (int i = 0; i < 900; ++i) submit_one(60.0);
    settle();
    // The largest reply burst the session can see: a full window of jobs
    // admitted at one instant, all resolving in the next pump.
    for (std::uint64_t i = 0; i < kStragglerSessionSlots; ++i) {
      submit(0.001 * floor, 1.0);
    }
    clock.advance(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    settle();
    const std::uint64_t warm_accepts = client.accepted;
    util::AllocProbe::reset();
    for (int i = 0; i < 3000; ++i) submit_one(30.0);
    settle();
    out.allocs = util::AllocProbe::count();
    out.accepted = client.accepted - warm_accepts;

    clock.advance(60.0);
    serve::Message drain;
    drain.type = serve::MsgType::kDrain;
    drain.seq = ++seq;
    client.send(drain);
    while (server->step(step_ms)) client.read_socket();
    inspect(*server);
  });
  worker.join();
  return out;
}

/// The window of a straggler session after its drain: the ring kept its
/// pre-size while the span grew many times past it, and jobs spilled.
void expect_stragglers_spilled(const char* mode, std::size_t slots,
                               std::uint64_t peak, std::uint64_t stragglers) {
  std::fprintf(stderr,
               "straggler session (%s): %zu slots, span peak %llu, "
               "%llu stragglers\n",
               mode, slots, static_cast<unsigned long long>(peak),
               static_cast<unsigned long long>(stragglers));
  EXPECT_EQ(slots, kStragglerSessionSlots) << mode;
  EXPECT_GE(peak, 8 * kStragglerSessionSlots) << mode;
  EXPECT_GE(stragglers, 1u) << mode;
  EXPECT_LT(stragglers, kStragglerSessionSlots) << mode;
}

void expect_straggler_probe(const char* mode, const StragglerProbe& probe) {
  std::fprintf(stderr, "straggler session (%s): %llu admitted, %llu "
               "allocations\n", mode,
               static_cast<unsigned long long>(probe.accepted),
               static_cast<unsigned long long>(probe.allocs));
  EXPECT_GE(probe.accepted, 2900u) << mode;
  EXPECT_EQ(probe.allocs, 0u) << mode;
}

TEST(HotPathAllocations, HeavyTailedSessionSpillsInsteadOfGrowing) {
  // The straggler contract (sim/job_table.hpp, serve/session.hpp): jobs
  // whose deadlines lie hundreds of arrivals ahead pin the window's base,
  // so the unretired span grows many times past --max-in-flight. The full
  // ring spills each such job to the straggler store instead of doubling,
  // the ready queues probe past colliding ids, and the journal holds the
  // rows behind a straggler: a warmed session allocates nothing in all
  // three modes, and the streamed outcomes.csv still replays byte-exactly.
  serve::ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = cap::CapacityProfile(1.0);
  config.c_lo = 0.5;
  config.c_hi = 1.0;
  config.max_in_flight = kStragglerSessionSlots;
  config.admission_check = false;
  const auto lineup = sched::full_lineup(config.c_lo, config.c_hi);
  const auto* factory = sched::find_factory(lineup, "V-Dover");
  ASSERT_NE(factory, nullptr);

  config.journal_dir = testutil::fresh_dir("straggler_single");
  expect_straggler_probe(
      "single",
      probe_straggler_session(
          config.c_lo, 0,
          [&](serve::FakeClock& clock) {
            return std::make_unique<serve::AdmissionServer>(
                config, factory->make(), clock);
          },
          [&](const serve::AdmissionServer& server) {
            EXPECT_TRUE(server.finished());
            EXPECT_TRUE(server.journal_error().empty());
            expect_stragglers_spilled("single", server.window_slots(),
                                      server.window_peak(),
                                      server.window_stragglers());
          }));
  expect_single_replay(config.journal_dir, *factory);

  serve::ServerConfig sharded = config;
  sharded.shards = 2;
  sharded.shard_poll_ms = 5;
  sharded.journal_dir = testutil::fresh_dir("straggler_sharded");
  expect_straggler_probe(
      "sharded",
      probe_straggler_session(
          config.c_lo, 1,
          [&](serve::FakeClock& clock) {
            return std::make_unique<serve::ShardedAdmissionServer>(
                sharded, [&] { return factory->make(); }, clock);
          },
          [&](const serve::ShardedAdmissionServer& server) {
            EXPECT_TRUE(server.finished());
            EXPECT_TRUE(server.journal_error().empty());
            for (std::size_t k = 0; k < server.shard_count(); ++k) {
              const serve::ShardWorker& shard = server.shard(k);
              expect_stragglers_spilled("sharded", shard.window_slots(),
                                        shard.window_peak(),
                                        shard.window_stragglers());
            }
          }));

  cluster::ClusterServerConfig fleet;
  fleet.fleet = cluster::Fleet::heterogeneous(4);
  fleet.rental = "threshold";
  fleet.max_in_flight = kStragglerSessionSlots;
  fleet.admission_check = false;
  fleet.journal_dir = testutil::fresh_dir("straggler_fleet");
  expect_straggler_probe(
      "fleet",
      probe_straggler_session(
          fleet.fleet.admission_c_lo(), 0,
          [&](serve::FakeClock& clock) {
            return std::make_unique<cluster::ClusterServer>(fleet, clock);
          },
          [&](const cluster::ClusterServer& server) {
            EXPECT_TRUE(server.finished());
            EXPECT_TRUE(server.journal_error().empty());
            expect_stragglers_spilled("fleet", server.window_slots(),
                                      server.window_peak(),
                                      server.window_stragglers());
          }));
  expect_fleet_replay(fleet.journal_dir);
}

/// --max-in-flight of the widening sessions: sixteen times the first ring.
constexpr std::uint64_t kWideningSessionSlots = 256;
/// Jobs the dense phase admits at one instant.
constexpr int kDenseBurst = 200;

/// What the measured phase of a widening session submits.
enum class WindowLoad {
  /// kDenseBurst short jobs at one instant, all pending at once: the span
  /// and the jobs in flight grow together.
  kDense,
  /// One job no machine can finish in its 20 s window, then 400 short
  /// jobs: the far-deadline job pins the base for about 200 arrivals while
  /// the short jobs come and go, so the span outruns the jobs in flight.
  kSparse,
};

/// Boots `make_server(clock)` on a fresh thread (its config sets
/// --max-in-flight, no admission check and a journal), and warms it up
/// with short jobs only (the sjs_load shape at 10/s plus a burst of
/// sixteen at one instant), so its span stays short and its job window at
/// the 16-slot ring reserve() starts. Counts the allocations of a measured
/// phase that submits `load`, then drains the server and hands it to
/// `inspect`.
template <typename MakeServer, typename Inspect>
std::uint64_t probe_widening_session(double floor, int step_ms,
                                     WindowLoad load, MakeServer make_server,
                                     Inspect inspect) {
  std::uint64_t allocs = 0;
  std::thread worker([&] {
    serve::FakeClock clock;
    auto server = make_server(clock);
    const int port = server->start();
    testutil::LoopbackClient client(port, /*record=*/false);
    Rng rng(2033);
    std::uint64_t seq = 0;
    const auto submit = [&](double workload, double window) {
      serve::Message m;
      m.type = serve::MsgType::kSubmit;
      m.seq = ++seq;
      m.a = workload;
      m.b = window;
      m.c = 1.0;
      client.send(m);
      client.await_seq(*server, seq, step_ms);
    };
    const auto submit_short = [&] {
      clock.advance(rng.exponential_rate(10.0));
      const double workload = rng.exponential_mean(0.03 * floor);
      submit(workload, rng.uniform(1.05, 3.0) * workload / floor);
    };
    const auto settle = [&] {
      clock.advance(5.0);
      for (int i = 0; i < 50; ++i) {
        server->step(step_ms);
        client.read_socket();
      }
    };
    for (int i = 0; i < 300; ++i) submit_short();
    settle();
    for (int i = 0; i < 16; ++i) submit(0.001 * floor, 1.0);
    clock.advance(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    settle();
    util::AllocProbe::reset();
    if (load == WindowLoad::kDense) {
      // Queued behind one another, the burst's jobs resolve a few at a
      // time as the clock creeps on, so no pump ships a larger reply burst
      // than the warm-up's.
      const std::uint64_t resolved = client.completed + client.expired;
      for (int i = 0; i < kDenseBurst; ++i) submit(0.02 * floor, 100.0);
      for (int i = 0; i < 20000 &&
                      client.completed + client.expired < resolved + kDenseBurst;
           ++i) {
        clock.advance(0.002);
        server->step(step_ms);
        client.read_socket();
      }
    } else {
      submit(1.0e4 * floor, 20.0);
      for (int i = 0; i < 400; ++i) submit_short();
    }
    settle();
    allocs = util::AllocProbe::count();

    serve::Message drain;
    drain.type = serve::MsgType::kDrain;
    drain.seq = ++seq;
    client.send(drain);
    while (server->step(step_ms)) client.read_socket();
    inspect(*server);
  });
  worker.join();
  return allocs;
}

/// The window of a dense widening session after its drain: the ring widened
/// past the 16 slots it started at, stayed inside its reservation, and
/// nothing spilled.
void expect_widened(const char* mode, std::size_t slots, std::size_t reserved,
                    std::uint64_t peak, std::uint64_t stragglers,
                    std::uint64_t in_flight_peak) {
  std::fprintf(stderr,
               "widening session (%s): %zu of %zu slots, span peak %llu, "
               "%llu in flight at the peak\n",
               mode, slots, reserved, static_cast<unsigned long long>(peak),
               static_cast<unsigned long long>(in_flight_peak));
  EXPECT_EQ(reserved, kWideningSessionSlots) << mode;
  EXPECT_GT(peak, 64u) << mode;
  EXPECT_GE(slots, peak) << mode;
  EXPECT_LE(slots, reserved) << mode;
  EXPECT_EQ(stragglers, 0u) << mode;
  expect_window_follows_jobs(mode, slots, in_flight_peak);
}

TEST(HotPathAllocations, WindowWidensIntoItsReservationWithoutAllocating) {
  // The reservation contract (sim/job_table.hpp): --max-in-flight reserves
  // the job window's lanes, the ring starts at 16 slots, and a full ring
  // more than half of whose slots are pending doubles in place, inside the
  // reserved capacity. A warmed session that admits a dense burst of
  // pending jobs, so its span grows from 16 slots to most of the pre-size,
  // therefore allocates nothing in all three modes (the ready queues'
  // indices widen inside their reservations too), and its streamed
  // outcomes.csv still replays byte-exactly.
  serve::ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = cap::CapacityProfile(1.0);
  config.c_lo = 0.5;
  config.c_hi = 1.0;
  config.max_in_flight = kWideningSessionSlots;
  config.admission_check = false;
  const auto lineup = sched::full_lineup(config.c_lo, config.c_hi);
  const auto* factory = sched::find_factory(lineup, "V-Dover");
  ASSERT_NE(factory, nullptr);

  config.journal_dir = testutil::fresh_dir("widening_single");
  const std::uint64_t single = probe_widening_session(
      config.c_lo, 0, WindowLoad::kDense,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::AdmissionServer>(
            config, factory->make(), clock);
      },
      [&](const serve::AdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_widened("single", server.window_slots(),
                       server.window_reserved(), server.window_peak(),
                       server.window_stragglers(), server.in_flight_peak());
      });
  EXPECT_EQ(single, 0u);
  expect_single_replay(config.journal_dir, *factory);

  serve::ServerConfig sharded = config;
  sharded.shards = 2;
  sharded.shard_poll_ms = 5;
  sharded.journal_dir = testutil::fresh_dir("widening_sharded");
  const std::uint64_t two = probe_widening_session(
      config.c_lo, 1, WindowLoad::kDense,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::ShardedAdmissionServer>(
            sharded, [&] { return factory->make(); }, clock);
      },
      [&](const serve::ShardedAdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        // The acceptor splits the burst between the shards.
        std::size_t widest = 0;
        for (std::size_t k = 0; k < server.shard_count(); ++k) {
          const serve::ShardWorker& shard = server.shard(k);
          EXPECT_LE(shard.window_slots(), kWideningSessionSlots);
          EXPECT_EQ(shard.window_reserved(), kWideningSessionSlots);
          EXPECT_EQ(shard.window_stragglers(), 0u);
          expect_window_follows_jobs("sharded", shard.window_slots(),
                                     shard.in_flight_peak());
          widest = std::max(widest, shard.window_slots());
        }
        EXPECT_GE(widest, 64u);
      });
  EXPECT_EQ(two, 0u);

  cluster::ClusterServerConfig fleet;
  fleet.fleet = cluster::Fleet::heterogeneous(4);
  fleet.rental = "threshold";
  fleet.max_in_flight = kWideningSessionSlots;
  fleet.admission_check = false;
  fleet.journal_dir = testutil::fresh_dir("widening_fleet");
  const std::uint64_t fleet_allocs = probe_widening_session(
      fleet.fleet.admission_c_lo(), 0, WindowLoad::kDense,
      [&](serve::FakeClock& clock) {
        return std::make_unique<cluster::ClusterServer>(fleet, clock);
      },
      [&](const cluster::ClusterServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_widened("fleet", server.window_slots(),
                       server.window_reserved(), server.window_peak(),
                       server.window_stragglers(), server.in_flight_peak());
      });
  EXPECT_EQ(fleet_allocs, 0u);
  expect_fleet_replay(fleet.journal_dir);
}

TEST(HotPathAllocations, SparseFleetWindowFollowsItsJobsInFlight) {
  // The window rule (sim/job_table.hpp) on the fleet, at a --max-in-flight
  // far above the session's span: one far-deadline job pins the window's
  // base while short jobs come and go, so the span grows to about 200 ids
  // with only a few jobs in flight. A full ring that is at most half
  // pending spills its base instead of widening, so the ring stays within
  // four times the in-flight peak rather than following the span into the
  // reservation; a warmed session allocates nothing doing so, and its
  // streamed outcomes.csv still replays byte-exactly.
  cluster::ClusterServerConfig fleet;
  fleet.fleet = cluster::Fleet::heterogeneous(4);
  fleet.rental = "threshold";
  fleet.max_in_flight = 4096;
  fleet.admission_check = false;
  fleet.journal_dir = testutil::fresh_dir("sparse_fleet");
  const std::uint64_t allocs = probe_widening_session(
      fleet.fleet.admission_c_lo(), 0, WindowLoad::kSparse,
      [&](serve::FakeClock& clock) {
        return std::make_unique<cluster::ClusterServer>(fleet, clock);
      },
      [&](const cluster::ClusterServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        std::fprintf(stderr,
                     "sparse fleet session: %zu of %zu slots, span peak "
                     "%llu, %llu in flight at the peak, %llu stragglers\n",
                     server.window_slots(), server.window_reserved(),
                     static_cast<unsigned long long>(server.window_peak()),
                     static_cast<unsigned long long>(server.in_flight_peak()),
                     static_cast<unsigned long long>(
                         server.window_stragglers()));
        EXPECT_EQ(server.window_reserved(), 4096u);
        EXPECT_GT(server.window_peak(), 150u);
        expect_window_follows_jobs("fleet", server.window_slots(),
                                   server.in_flight_peak());
        EXPECT_GE(server.window_stragglers(), 1u);
      });
  EXPECT_EQ(allocs, 0u);
  expect_fleet_replay(fleet.journal_dir);
}

/// --max-in-flight of the held-ring sessions: room for the held span.
constexpr std::uint64_t kHeldRingSessionSlots = 1024;

/// The journal's held-row ring after a sparse session's drain: rows were
/// held behind the far-deadline job, so the ring widened past the 64 slots
/// it starts at, inside its reservation, and no further than the span can
/// reach (the held rows plus the unretired ids).
void expect_held_ring_widened(const char* mode, std::size_t ring_slots,
                              std::uint64_t rows_held,
                              std::uint64_t window_peak) {
  std::fprintf(stderr,
               "held-ring session (%s): %zu ring slots, %llu rows held, "
               "span peak %llu\n",
               mode, ring_slots, static_cast<unsigned long long>(rows_held),
               static_cast<unsigned long long>(window_peak));
  EXPECT_GT(ring_slots, 64u) << mode;
  EXPECT_LE(ring_slots, kHeldRingSessionSlots) << mode;
  EXPECT_LE(ring_slots, std::bit_ceil(rows_held + window_peak)) << mode;
}

TEST(HotPathAllocations, HeldOutcomeRingWidensIntoItsReservation) {
  // The held-row contract (serve/journal.hpp): --max-in-flight reserves the
  // journal's held-row ring, which starts at 64 slots and doubles in place
  // as the held span needs. A warmed session whose far-deadline job holds
  // back the rows of a few hundred later jobs widens the ring inside its
  // reservation and allocates nothing in all three modes, and every
  // streamed outcomes.csv still replays byte-exactly.
  serve::ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = cap::CapacityProfile(1.0);
  config.c_lo = 0.5;
  config.c_hi = 1.0;
  config.max_in_flight = kHeldRingSessionSlots;
  config.admission_check = false;
  const auto lineup = sched::full_lineup(config.c_lo, config.c_hi);
  const auto* factory = sched::find_factory(lineup, "V-Dover");
  ASSERT_NE(factory, nullptr);

  config.journal_dir = testutil::fresh_dir("held_ring_single");
  const std::uint64_t single = probe_widening_session(
      config.c_lo, 0, WindowLoad::kSparse,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::AdmissionServer>(
            config, factory->make(), clock);
      },
      [&](const serve::AdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_held_ring_widened("single", server.outcome_ring_slots(),
                                 server.outcome_rows_held(),
                                 server.window_peak());
      });
  EXPECT_EQ(single, 0u);
  expect_single_replay(config.journal_dir, *factory);

  serve::ServerConfig sharded = config;
  sharded.shards = 2;
  sharded.shard_poll_ms = 5;
  sharded.journal_dir = testutil::fresh_dir("held_ring_sharded");
  const std::uint64_t two = probe_widening_session(
      config.c_lo, 1, WindowLoad::kSparse,
      [&](serve::FakeClock& clock) {
        return std::make_unique<serve::ShardedAdmissionServer>(
            sharded, [&] { return factory->make(); }, clock);
      },
      [&](const serve::ShardedAdmissionServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        // The far-deadline job holds back the rows of its own shard only.
        std::size_t widest = 0;
        for (std::size_t k = 0; k < server.shard_count(); ++k) {
          const serve::ShardWorker& shard = server.shard(k);
          EXPECT_GE(shard.outcome_ring_slots(), 64u);
          EXPECT_LE(shard.outcome_ring_slots(),
                    std::max<std::uint64_t>(
                        64, std::bit_ceil(shard.outcome_rows_held() +
                                          shard.window_peak())));
          widest = std::max(widest, shard.outcome_ring_slots());
        }
        EXPECT_GT(widest, 64u);
        EXPECT_LE(widest, kHeldRingSessionSlots);
      });
  EXPECT_EQ(two, 0u);
  for (int k = 0; k < 2; ++k) {
    expect_single_replay(sharded.journal_dir + "/shard" + std::to_string(k),
                         *factory);
  }

  cluster::ClusterServerConfig fleet;
  fleet.fleet = cluster::Fleet::heterogeneous(4);
  fleet.rental = "threshold";
  fleet.max_in_flight = kHeldRingSessionSlots;
  fleet.admission_check = false;
  fleet.journal_dir = testutil::fresh_dir("held_ring_fleet");
  const std::uint64_t fleet_allocs = probe_widening_session(
      fleet.fleet.admission_c_lo(), 0, WindowLoad::kSparse,
      [&](serve::FakeClock& clock) {
        return std::make_unique<cluster::ClusterServer>(fleet, clock);
      },
      [&](const cluster::ClusterServer& server) {
        EXPECT_TRUE(server.finished());
        EXPECT_TRUE(server.journal_error().empty());
        expect_held_ring_widened("fleet", server.outcome_ring_slots(),
                                 server.outcome_rows_held(),
                                 server.window_peak());
      });
  EXPECT_EQ(fleet_allocs, 0u);
  expect_fleet_replay(fleet.journal_dir);
}

TEST(HotPathAllocations, LiveVDoverTimerChurnAllocationFree) {
  // The engine's worst timer load, live: adaptive-EWMA V-Dover under a
  // 3x-overloaded arrival stream keeps a standing Qother queue, and every
  // capacity breakpoint cancels and re-arms each queued job's zero-laxity
  // timer on the volatile heap. The first half of the admissions warms every
  // structure; the second half (admissions, hooks, timer churn, dead timers,
  // compactions) must not allocate. A fresh thread starts the ready queues'
  // thread-local recycler empty.
  std::uint64_t allocs = 0;
  std::size_t breakpoints = 0;
  std::size_t live_timers = 0;
  sim::SimResult result;
  std::thread worker([&] {
    Rng rng(2029);
    auto profile = make_choppy_profile(1024, 0.2, rng);
    const double horizon = profile.breakpoints().back();
    auto jobs = gen::generate_small_random_jobs(1600, horizon, 7.0, 1.0, 3.0,
                                                rng);
    std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
      return a.release < b.release;
    });
    Instance instance({}, profile);
    instance.reserve_jobs(jobs.size());
    sched::VDoverOptions options;
    options.adaptive_estimate = true;
    ProbedVDover scheduler(options);
    sim::Engine engine(instance, scheduler);
    engine.reserve_live(jobs.size());
    engine.begin_live();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i == jobs.size() / 2) {
        util::AllocProbe::reset();
        scheduler.max_live_timers_ = 0;
        scheduler.samples_ = 0;
      }
      engine.advance_to(jobs[i].release);
      engine.admit_live(instance.append_job(jobs[i]));
    }
    engine.advance_to(horizon);
    allocs = util::AllocProbe::count();
    breakpoints = scheduler.samples_;
    live_timers = scheduler.max_live_timers_;
    result = engine.finish_live();
  });
  worker.join();

  // The measured half churned a standing timer population...
  EXPECT_GT(breakpoints, 400u);
  EXPECT_GE(live_timers, 10u);
  EXPECT_GT(result.timers_armed, 2000u);
  EXPECT_GE(result.heap_compactions, 1u);
  // ...and allocated nothing.
  std::fprintf(stderr, "live V-Dover timer churn: %llu allocations\n",
               static_cast<unsigned long long>(allocs));
  EXPECT_EQ(allocs, 0u);
}

/// Forwards every hook to a wrapped global scheduler and sums the
/// allocations made inside the hooks that follow on_start.
class AllocCountingGlobalScheduler : public cloud::GlobalScheduler {
 public:
  explicit AllocCountingGlobalScheduler(cloud::GlobalScheduler& inner)
      : inner_(inner) {}

  void on_start(cloud::MultiEngine& engine) override {
    inner_.on_start(engine);
  }
  void on_release(cloud::MultiEngine& engine, JobId job) override {
    const std::uint64_t before = util::AllocProbe::count();
    inner_.on_release(engine, job);
    count(before);
  }
  void on_complete(cloud::MultiEngine& engine, JobId job,
                   std::size_t server) override {
    const std::uint64_t before = util::AllocProbe::count();
    inner_.on_complete(engine, job, server);
    count(before);
  }
  void on_expire(cloud::MultiEngine& engine, JobId job,
                 std::size_t server) override {
    const std::uint64_t before = util::AllocProbe::count();
    inner_.on_expire(engine, job, server);
    count(before);
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t hook_allocs = 0;
  std::uint64_t hooks = 0;

 private:
  void count(std::uint64_t before) {
    hook_allocs += util::AllocProbe::count() - before;
    ++hooks;
  }

  cloud::GlobalScheduler& inner_;
};

/// Hook allocations of one batch fleet run (the pb_probe fleet shape:
/// Fleet::heterogeneous(6), default arrivals, flash-crowd paths) under
/// `scheduler`. The engine's completion heap is pre-sized first, so the
/// count is the scheduler's own work, not the engine's growth to its
/// high-water.
std::uint64_t fleet_hook_allocs(cloud::GlobalScheduler& scheduler,
                                std::uint64_t* hooks) {
  const cluster::Fleet fleet = cluster::Fleet::heterogeneous(6);
  gen::JobGenParams params;
  params.c_lo = fleet.admission_c_lo();
  Rng rng(2028, 0);
  std::vector<Job> jobs = gen::generate_jobs(params, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  cluster::ScenarioConfig scenario;
  scenario.kind = cap::ScenarioKind::kFlashCrowd;
  AllocCountingGlobalScheduler counting(scheduler);
  cloud::MultiEngine engine(
      jobs, fleet.sample_paths(scenario, params.horizon, rng), counting);
  engine.reserve_live(jobs.size());
  const cloud::MultiSimResult result = engine.run_to_completion();
  EXPECT_GT(result.completed_count, 100u);
  EXPECT_GT(result.migrations + result.preemptions, 0u);
  *hooks = counting.hooks;
  return counting.hook_allocs;
}

TEST(HotPathAllocations, FleetGlobalSchedulerHooksAllocationFree) {
  // Both fleet schedulers keep their live set in a cloud::RankedLiveSet
  // that on_start sizes to the run: no hook after it allocates — not one
  // tree node per release, as a std::set live set would. Each run is on a
  // fresh thread so the ReadyQueue recycler starts empty.
  std::uint64_t dispatcher_allocs = 0, dispatcher_hooks = 0;
  std::uint64_t global_allocs = 0, global_hooks = 0;
  std::thread worker([&] {
    const cluster::Fleet fleet = cluster::Fleet::heterogeneous(6);
    cluster::Dispatcher dispatcher(
        fleet, cluster::DispatcherConfig{},
        cluster::make_rental_controller("threshold"));
    dispatcher_allocs = fleet_hook_allocs(dispatcher, &dispatcher_hooks);
  });
  worker.join();
  std::thread global_worker([&] {
    cloud::GlobalKeyScheduler scheduler(cloud::GlobalKey::kValueDensity);
    global_allocs = fleet_hook_allocs(scheduler, &global_hooks);
  });
  global_worker.join();

  std::fprintf(stderr,
               "fleet hooks: dispatcher %llu allocations in %llu hooks, "
               "global %llu allocations in %llu hooks\n",
               static_cast<unsigned long long>(dispatcher_allocs),
               static_cast<unsigned long long>(dispatcher_hooks),
               static_cast<unsigned long long>(global_allocs),
               static_cast<unsigned long long>(global_hooks));
  EXPECT_GT(dispatcher_hooks, 1000u);
  EXPECT_GT(global_hooks, 1000u);
  EXPECT_EQ(dispatcher_allocs, 0u);
  EXPECT_EQ(global_allocs, 0u);
}

TEST(HotPathAllocations, RankedLiveSetIdIndexGrowsGeometrically) {
  // Live mode: on_start sees no jobs yet, and ids grow with the session.
  // The tail's id index must grow geometrically: O(log n) allocations over
  // n releases, never one per release.
  constexpr JobId kReleases = 100000;
  std::uint64_t allocs = 0;
  std::thread worker([&] {
    cloud::RankedLiveSet live;
    live.begin_run(4, 0);
    util::AllocProbe::reset();
    for (JobId id = 0; id < kReleases; ++id) {
      live.insert(static_cast<double>(id % 97), id);
      if (id >= 32) {
        ASSERT_TRUE(live.erase(id - 32));  // ~32 live jobs
      }
    }
    allocs = util::AllocProbe::count();
  });
  worker.join();
  std::fprintf(stderr, "ranked live set: %llu allocations over %lld releases\n",
               static_cast<unsigned long long>(allocs),
               static_cast<long long>(kReleases));
  // About one doubling of the id index per power of two, plus the tail
  // heap's growth to its small high-water.
  EXPECT_LE(allocs, 2u * std::bit_width(static_cast<unsigned>(kReleases)));
}

}  // namespace
}  // namespace sjs
