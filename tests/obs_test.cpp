// Tests for the observability subsystem (src/obs/): ring buffer semantics,
// replay digest determinism and sensitivity, metrics sharding and merging,
// exporters, and the online invariant checker — both green on real engine
// runs and red on tampered streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "capacity/capacity_process.hpp"
#include "cloud/global_sched.hpp"
#include "cloud/multi_engine.hpp"
#include "jobs/workload_gen.hpp"
#include "obs/digest.hpp"
#include "obs/exporters.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/ring_buffer.hpp"
#include "obs/trace_sink.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "temp_path.hpp"

namespace sjs::obs {
namespace {

TraceEvent ev(double t, TraceKind kind, JobId job = kNoJob, double a = 0.0,
              double b = 0.0, std::int32_t server = -1) {
  return TraceEvent{t, kind, job, server, a, b};
}

Job make_job(JobId id, double r, double p, double d, double v) {
  Job j;
  j.id = id;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

/// Two unit-rate jobs on a constant rate-1 path: job 0 fits, job 1 does not
/// if it only runs after job 0.
Instance tiny_instance() {
  std::vector<Job> jobs{make_job(0, 0.0, 2.0, 3.0, 5.0),
                        make_job(1, 1.0, 4.0, 4.0, 7.0)};
  return Instance(jobs, cap::CapacityProfile(1.0), 1.0, 1.0);
}

/// The canonical event stream of running tiny_instance() under EDF-like
/// "job 0 first": release(0), dispatch(0), release(1), complete(0) at t=2,
/// dispatch(1), expire(1) at t=4, run_end.
std::vector<TraceEvent> tiny_valid_stream() {
  return {
      ev(0.0, TraceKind::kRunStart, kNoJob, 2.0),
      ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0),
      ev(0.0, TraceKind::kDispatch, 0, 2.0),
      ev(1.0, TraceKind::kRelease, 1, 4.0, 4.0),
      ev(2.0, TraceKind::kComplete, 0, 5.0),
      ev(2.0, TraceKind::kDispatch, 1, 4.0),
      ev(4.0, TraceKind::kExpire, 1, 2.0, 1.0),
      ev(4.0, TraceKind::kRunEnd, kNoJob, 5.0, 12.0),
  };
}

// ------------------------------------------------------------- trace sinks

TEST(TraceSink, VectorSinkRetainsStreamInOrder) {
  VectorTraceSink sink;
  for (const auto& event : tiny_valid_stream()) sink.record(event);
  ASSERT_EQ(sink.events().size(), 8u);
  EXPECT_EQ(sink.events().front().kind, TraceKind::kRunStart);
  EXPECT_EQ(sink.events().back().kind, TraceKind::kRunEnd);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, TeeFansOutToEverySink) {
  VectorTraceSink a;
  VectorTraceSink b;
  TeeSink tee;
  EXPECT_EQ(tee.sink_count(), 0u);
  tee.add(&a);
  tee.add(&b);
  tee.record(ev(1.0, TraceKind::kRelease, 0));
  EXPECT_EQ(a.events().size(), 1u);
  EXPECT_EQ(b.events().size(), 1u);
}

TEST(RingBuffer, BelowCapacityKeepsEverything) {
  RingTraceBuffer ring(16);
  for (int i = 0; i < 5; ++i) {
    ring.record(ev(i, TraceKind::kTimer, 0, i));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(events[i].time, i);
}

TEST(RingBuffer, WrapsKeepingTheTail) {
  RingTraceBuffer ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.record(ev(i, TraceKind::kTimer, 0, i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Chronological order, most recent 4 events: t = 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(events[i].time, 6.0 + i);
}

// ------------------------------------------------------------------ digest

TEST(Digest, IdenticalStreamsHashIdentically) {
  DigestSink a;
  DigestSink b;
  for (const auto& event : tiny_valid_stream()) {
    a.record(event);
    b.record(event);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.event_count(), 8u);
  EXPECT_NE(a.digest(), kDigestSeed);  // folding happened
}

TEST(Digest, SingleBitOfDriftChangesTheDigest) {
  auto stream = tiny_valid_stream();
  DigestSink clean;
  for (const auto& event : stream) clean.record(event);

  // Perturb one payload by one ulp.
  auto tampered = stream;
  tampered[4].a = std::nextafter(tampered[4].a, 1e300);
  DigestSink dirty;
  for (const auto& event : tampered) dirty.record(event);
  EXPECT_NE(clean.digest(), dirty.digest());
}

TEST(Digest, OrderMatters) {
  auto stream = tiny_valid_stream();
  DigestSink forward;
  for (const auto& event : stream) forward.record(event);
  std::reverse(stream.begin(), stream.end());
  DigestSink backward;
  for (const auto& event : stream) backward.record(event);
  EXPECT_NE(forward.digest(), backward.digest());
}

TEST(Digest, NegativeZeroIsCanonical) {
  DigestSink a;
  DigestSink b;
  a.record(ev(0.0, TraceKind::kIdle, kNoJob, 0.0));
  b.record(ev(-0.0, TraceKind::kIdle, kNoJob, -0.0));
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(double_bits(-0.0), double_bits(0.0));
}

TEST(Digest, CombineIsOrderSensitive) {
  const std::vector<std::uint64_t> ab{1u, 2u};
  const std::vector<std::uint64_t> ba{2u, 1u};
  EXPECT_NE(combine_digests(ab), combine_digests(ba));
  EXPECT_EQ(combine_digests(ab), combine_digests(ab));
}

TEST(Digest, EngineRunsAreReproducible) {
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = 80.0;
  Rng rng(31);
  const auto instance = gen::generate_paper_instance(setup, rng);

  auto digest_of = [&](const sched::NamedFactory& f) {
    auto scheduler = f.make();
    sim::Engine engine(instance, *scheduler);
    DigestSink sink;
    engine.attach_trace(&sink);
    engine.run_to_completion();
    return sink.digest();
  };
  EXPECT_EQ(digest_of(sched::make_vdover()), digest_of(sched::make_vdover()));
  EXPECT_NE(digest_of(sched::make_vdover()), digest_of(sched::make_edf()));
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesDistributionsMerge) {
  MetricsRegistry registry;
  auto& shard = registry.local();
  shard.count("jobs", 3.0);
  shard.count("jobs");
  shard.set_gauge("queue_depth", 7.0);
  shard.observe("latency", 1.0);
  shard.observe("latency", 3.0);

  auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("jobs"), 4.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("queue_depth"), 7.0);
  EXPECT_EQ(snap.distributions.at("latency").count(), 2u);
  EXPECT_DOUBLE_EQ(snap.distributions.at("latency").mean(), 2.0);
  EXPECT_NE(snap.render().find("jobs"), std::string::npos);
}

TEST(Metrics, ThreadShardsMergeExactly) {
  MetricsRegistry registry;
  parallel_for(4, 1000, [&](std::size_t i) {
    auto& shard = registry.local();
    shard.count("items");
    shard.observe("value", static_cast<double>(i));
  });
  EXPECT_GE(registry.shard_count(), 1u);
  auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("items"), 1000.0);
  EXPECT_EQ(snap.distributions.at("value").count(), 1000u);
  EXPECT_DOUBLE_EQ(snap.distributions.at("value").mean(), 499.5);
  EXPECT_DOUBLE_EQ(snap.distributions.at("value").min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.distributions.at("value").max(), 999.0);
}

TEST(Metrics, DeclaredHistogramsBinAndMergeAcrossShards) {
  MetricsRegistry registry;
  registry.declare_histogram("value", 0.0, 100.0, 10);
  parallel_for(3, 100, [&](std::size_t i) {
    registry.local().observe("value", static_cast<double>(i));
  });
  auto snap = registry.snapshot();
  const auto& histogram = snap.histograms.at("value");
  EXPECT_EQ(histogram.total(), 100u);
  for (std::size_t bin = 0; bin < histogram.bins(); ++bin) {
    EXPECT_EQ(histogram.count(bin), 10u) << "bin " << bin;
  }
}

TEST(Metrics, GaugesMergeByMaximum) {
  // Gauges are last-write-wins within a shard and max across shards; pin one
  // shard per explicit thread so the cross-shard rule is what is tested.
  MetricsRegistry registry;
  registry.local().set_gauge("peak", 3.0);
  std::thread high([&] { registry.local().set_gauge("peak", 9.0); });
  std::thread low([&] { registry.local().set_gauge("peak", 5.0); });
  high.join();
  low.join();
  EXPECT_EQ(registry.shard_count(), 3u);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("peak"), 9.0);
}

TEST(Metrics, BridgeDerivesResponseTimeAndCounters) {
  MetricsRegistry registry;
  TraceMetricsBridge bridge(registry.local());
  for (const auto& event : tiny_valid_stream()) bridge.record(event);
  auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("trace.release"), 2.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("trace.dispatch"), 2.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("trace.complete"), 1.0);
  // Job 0: released at 0, completed at 2, deadline 3.
  EXPECT_DOUBLE_EQ(snap.distributions.at("job.response_time").mean(), 2.0);
  EXPECT_DOUBLE_EQ(snap.distributions.at("job.slack_at_completion").mean(),
                   1.0);
  EXPECT_DOUBLE_EQ(snap.distributions.at("run.value_fraction").mean(),
                   5.0 / 12.0);
}

// --------------------------------------------------------------- exporters

TEST(Exporters, JsonlEmitsOneObjectPerEvent) {
  std::ostringstream out;
  write_jsonl(tiny_valid_stream(), out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 8);
  EXPECT_NE(text.find("\"kind\":\"release\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"run_end\""), std::string::npos);
  EXPECT_NE(text.find("\"job\":1"), std::string::npos);
}

TEST(Exporters, ChromeTraceHasSlicesAndInstants) {
  std::ostringstream out;
  write_chrome_trace(tiny_valid_stream(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // exec slices
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // instants
  // Balanced JSON braces (cheap well-formedness check).
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
}

TEST(Exporters, ChromeTraceClosesTruncatedSlices) {
  // A stream that ends mid-execution (as a wrapped ring would) must still
  // produce a closed slice.
  std::vector<TraceEvent> stream{
      ev(0.0, TraceKind::kDispatch, 0, 2.0),
      ev(1.5, TraceKind::kTimer, 0, 1.0),
  };
  std::ostringstream out;
  write_chrome_trace(stream, out);
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Exporters, SaveTraceRejectsUnknownFormatAndBadPath) {
  const auto events = tiny_valid_stream();
  EXPECT_THROW(save_trace(events, "/nonexistent-dir/x.jsonl", "jsonl"),
               std::runtime_error);
  const std::string path =
      sjs::testutil::unique_temp_path("obs_trace_test", ".jsonl");
  EXPECT_THROW(save_trace(events, path, "xml"), std::runtime_error);
  EXPECT_NO_THROW(save_trace(events, path, "jsonl"));
  EXPECT_NO_THROW(save_trace(events, path, "chrome"));
}

// ---------------------------------------------------------------- checker

TEST(Invariants, AcceptsAValidStream) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  for (const auto& event : tiny_valid_stream()) checker.record(event);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_DOUBLE_EQ(checker.executed(0), 2.0);
  EXPECT_DOUBLE_EQ(checker.executed(1), 2.0);
  EXPECT_EQ(checker.completed_count(), 1u);
  checker.verify_executed_work({2.0, 2.0});
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(Invariants, DetectsCompletionWithoutEnoughWork) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.0, TraceKind::kRunStart, kNoJob, 2.0));
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  checker.record(ev(0.0, TraceKind::kDispatch, 0, 2.0));
  // Claimed complete at t=1: only 1.0 of 2.0 workload integrated.
  checker.record(ev(1.0, TraceKind::kComplete, 0, 5.0));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("integrated work"), std::string::npos);
}

TEST(Invariants, DetectsExecutionPastTheDeadline) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  checker.record(ev(0.0, TraceKind::kDispatch, 0, 2.0));
  checker.record(ev(3.5, TraceKind::kPreempt, 0, 0.0));  // d_0 = 3
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("past its deadline"), std::string::npos);
}

TEST(Invariants, DeadlineToleranceIsTheEnginesOwn) {
  // One tolerance contract: the checker allows exactly sjs::deadline_eps
  // (the engines' completes_by_deadline band) past a deadline. A completion
  // half of it late is accepted; one twice it late is flagged. Each job
  // runs its full workload right up to the completion instant.
  const auto instance = tiny_instance();
  const double d = instance.job(0).deadline;
  const double eps = sjs::deadline_eps(d);
  EXPECT_EQ(eps, sjs::sim::deadline_eps(d));
  const auto complete_at = [&](double t) {
    InvariantChecker checker(instance);
    checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
    checker.record(ev(t - 2.0, TraceKind::kDispatch, 0, 2.0));
    checker.record(ev(t, TraceKind::kComplete, 0, 5.0));
    return checker.ok() ? std::string() : checker.report();
  };
  EXPECT_EQ(complete_at(d + 0.5 * eps), "");
  const std::string late = complete_at(d + 2.0 * eps);
  EXPECT_NE(late.find("completion after the deadline"), std::string::npos)
      << late;
}

TEST(Invariants, DetectsDispatchOfUnreleasedJob) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.5, TraceKind::kDispatch, 1, 4.0));  // r_1 = 1
  EXPECT_FALSE(checker.ok());
}

TEST(Invariants, DetectsDoubleReleaseAndDoubleCompletion) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("released twice"), std::string::npos);
}

TEST(Invariants, DetectsValueMisaccountingAtRunEnd) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  for (auto event : tiny_valid_stream()) {
    if (event.kind == TraceKind::kRunEnd) event.a = 9.0;  // engine "claims" 9
    checker.record(event);
  }
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("completed value"), std::string::npos);
}

TEST(Invariants, DetectsZeroLaxityLabelWithoutTest) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  // Supplement label with no preceding kNoteZeroLaxityTest: I9.
  checker.record(ev(0.5, TraceKind::kNote, 0, kNoteSupplement));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("zero-laxity"), std::string::npos);
}

TEST(Invariants, AcceptsLabelAfterZeroLaxityTest) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  checker.record(ev(0.5, TraceKind::kNote, 0, kNoteZeroLaxityTest, 5.0));
  checker.record(ev(0.5, TraceKind::kNote, 0, kNoteSupplement));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(Invariants, DetectsMisreportedExecutedWork) {
  const auto instance = tiny_instance();
  InvariantChecker checker(instance);
  for (const auto& event : tiny_valid_stream()) checker.record(event);
  ASSERT_TRUE(checker.ok());
  checker.verify_executed_work({2.0, 3.5});  // trace integrates 2.0 for job 1
  EXPECT_FALSE(checker.ok());
}

TEST(Invariants, ThrowOnViolationOptionFiresImmediately) {
  const auto instance = tiny_instance();
  InvariantChecker::Options options;
  options.throw_on_violation = true;
  InvariantChecker checker(instance, options);
  checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0));
  EXPECT_THROW(checker.record(ev(0.0, TraceKind::kRelease, 0, 2.0, 3.0)),
               CheckError);
}

TEST(Invariants, GreenOnRealVDoverRun) {
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = 120.0;
  Rng rng(77);
  const auto instance = gen::generate_paper_instance(setup, rng);

  auto scheduler = sched::make_vdover().make();
  sim::Engine engine(instance, *scheduler);
  InvariantChecker checker(instance);
  engine.attach_trace(&checker);
  auto result = engine.run_to_completion();
  checker.verify_executed_work(result.executed_work);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(checker.completed_count(), result.completed_count);
}

TEST(Invariants, GreenOnMultiEngineWithMigration) {
  // The chaos-free path: global EDF over a heterogeneous 3-server fleet.
  Rng rng(123);
  gen::JobGenParams jp;
  jp.lambda = 6.0;
  jp.horizon = 40.0;
  jp.slack_factor = 1.4;
  auto jobs = gen::generate_jobs(jp, rng);
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(1.0),
                                          cap::CapacityProfile(2.0),
                                          cap::CapacityProfile(0.5)};
  // Checker ground truth: the jobs plus per-server paths.
  Instance instance(jobs, cap::CapacityProfile(1.0), 0.5, 2.0);

  cloud::GlobalKeyScheduler scheduler(cloud::GlobalKey::kDeadline);
  cloud::MultiEngine engine(jobs, fleet, scheduler);
  InvariantChecker checker(instance);
  checker.set_server_profiles(fleet);
  engine.attach_trace(&checker);
  auto result = engine.run_to_completion();
  checker.verify_executed_work(result.executed_work);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// ------------------------------------------------------ engine integration

TEST(EngineTrace, StreamIsBracketedAndFlushed) {
  gen::PaperSetup setup;
  setup.lambda = 4.0;
  setup.expected_jobs = 40.0;
  Rng rng(5);
  const auto instance = gen::generate_paper_instance(setup, rng);

  auto scheduler = sched::make_edf().make();
  sim::Engine engine(instance, *scheduler);
  EXPECT_FALSE(engine.trace_enabled());
  VectorTraceSink sink;
  engine.attach_trace(&sink);
  EXPECT_TRUE(engine.trace_enabled());
  auto result = engine.run_to_completion();

  ASSERT_FALSE(sink.events().empty());
  EXPECT_EQ(sink.events().front().kind, TraceKind::kRunStart);
  EXPECT_EQ(sink.events().back().kind, TraceKind::kRunEnd);
  EXPECT_DOUBLE_EQ(sink.events().back().a, result.completed_value);

  // Event count bookkeeping: one release per job, terminal per job.
  const auto count_kind = [&](TraceKind kind) {
    return std::count_if(
        sink.events().begin(), sink.events().end(),
        [kind](const TraceEvent& event) { return event.kind == kind; });
  };
  EXPECT_EQ(count_kind(TraceKind::kRelease),
            static_cast<std::ptrdiff_t>(instance.size()));
  EXPECT_EQ(count_kind(TraceKind::kComplete),
            static_cast<std::ptrdiff_t>(result.completed_count));
  EXPECT_EQ(count_kind(TraceKind::kExpire),
            static_cast<std::ptrdiff_t>(result.expired_count));
}

TEST(EngineTrace, RingTailMatchesFullStream) {
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = 60.0;
  Rng rng(8);
  const auto instance = gen::generate_paper_instance(setup, rng);

  auto run_with = [&](TraceSink& sink) {
    auto scheduler = sched::make_vdover().make();
    sim::Engine engine(instance, *scheduler);
    engine.attach_trace(&sink);
    engine.run_to_completion();
  };
  VectorTraceSink full;
  run_with(full);
  RingTraceBuffer ring(32);
  run_with(ring);

  ASSERT_GT(full.events().size(), 32u) << "instance too small for a wrap";
  EXPECT_EQ(ring.total_recorded(), full.events().size());
  const auto tail = ring.events();
  ASSERT_EQ(tail.size(), 32u);
  const auto& reference = full.events();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const auto& expected = reference[reference.size() - 32 + i];
    EXPECT_DOUBLE_EQ(tail[i].time, expected.time);
    EXPECT_EQ(tail[i].kind, expected.kind);
    EXPECT_EQ(tail[i].job, expected.job);
  }
}

TEST(EngineTrace, VDoverEmitsAuditableNotes) {
  // Overloaded instance: V-Dover must hit Procedure D at least once, and
  // every label must follow a zero-laxity test (checked by I9 above; here we
  // check the notes actually appear).
  gen::PaperSetup setup;
  setup.lambda = 8.0;
  setup.expected_jobs = 150.0;
  Rng rng(13);
  const auto instance = gen::generate_paper_instance(setup, rng);

  auto scheduler = sched::make_vdover().make();
  sim::Engine engine(instance, *scheduler);
  VectorTraceSink sink;
  engine.attach_trace(&sink);
  engine.run_to_completion();

  const auto notes = std::count_if(
      sink.events().begin(), sink.events().end(), [](const TraceEvent& event) {
        return event.kind == TraceKind::kNote &&
               static_cast<int>(event.a) == kNoteZeroLaxityTest;
      });
  EXPECT_GT(notes, 0) << "overloaded V-Dover run never reached Procedure D";
}

}  // namespace
}  // namespace sjs::obs
