// Integration tests for the sharded admission plane (src/serve/
// sharded_server.hpp + shard_worker.hpp).
//
// The two contracts under test:
//
//  1. N = 1 equivalence: a ShardedAdmissionServer with one shard, driven
//     through the exact scripted FakeClock session serve_test.cpp uses,
//     leaves a journal at <root>/shard0 that is BYTE-IDENTICAL to the one
//     the single-threaded AdmissionServer writes — same jobs.csv, same
//     %.17g admission stamps, same outcomes.csv. The sharded plane is a
//     strict refactor, not a behavioural fork.
//
//  2. Per-shard replay: with --shards=4 every shard journal is an
//     independent instance bundle that replays bit-exactly through a fresh
//     engine + scheduler, and (for an uncontended workload) the union of
//     shard outcomes equals what a single shard would have produced.
//
// Shard workers run on real threads, so awaits step the acceptor with a
// 1 ms poll timeout — the acceptor's poll set includes the reply-channel
// wake fds, so it unblocks the moment a shard commits a reply.
#include <gtest/gtest.h>


#include <algorithm>
#include <map>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_server.hpp"
#include "jobs/bundle.hpp"
#include "obs/metrics.hpp"
#include "loopback_client.hpp"
#include "temp_path.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sharded_server.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using sjs::serve::AdmissionServer;
using sjs::serve::FakeClock;
using sjs::serve::JobState;
using sjs::serve::Message;
using sjs::serve::MsgType;
using sjs::serve::RejectReason;
using sjs::serve::ServerConfig;
using sjs::serve::ShardedAdmissionServer;

using sjs::testutil::fresh_dir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::unique_ptr<sjs::sim::Scheduler> make_scheduler(const std::string& name,
                                                    double c_lo, double c_hi) {
  const auto lineup = sjs::sched::full_lineup(c_lo, c_hi);
  const auto* factory = sjs::sched::find_factory(lineup, name);
  SJS_CHECK_MSG(factory != nullptr, "unknown scheduler in test");
  return factory->make();
}

constexpr double kBandLo = 0.5;
constexpr double kBandHi = 1.0;

ServerConfig base_config(const std::string& journal_dir, std::size_t shards) {
  ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = sjs::cap::CapacityProfile(1.0);
  config.c_lo = kBandLo;
  config.c_hi = kBandHi;
  config.journal_dir = journal_dir;
  config.shards = shards;
  config.shard_poll_ms = 5;  // shard threads re-check promptly in tests
  return config;
}

ShardedAdmissionServer::SchedulerFactory scheduler_factory() {
  return [] { return make_scheduler("V-Dover", kBandLo, kBandHi); };
}

using TestClient = sjs::testutil::LoopbackClient;

Message submit_msg(std::uint64_t seq, double workload, double rel_deadline,
                   double value) {
  Message m;
  m.type = MsgType::kSubmit;
  m.seq = seq;
  m.a = workload;
  m.b = rel_deadline;
  m.c = value;
  return m;
}

/// The serve_test.cpp scripted session, verbatim (Rng(4242), 60 submissions,
/// every 10th inadmissible), driving an arbitrary server type. Awaiting each
/// reply before advancing the clock pins every admission stamp regardless of
/// which thread evaluates it, so the N=1 byte-identity comparison is fair.
template <typename Server>
void run_scripted_session(Server& server, FakeClock& clock, int step_ms) {
  server.start();
  TestClient client(server.port());
  sjs::Rng rng(4242);
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(rng.exponential_rate(20.0));
    const double workload = rng.exponential_mean(0.05);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / kBandLo
                              : rng.uniform(1.05, 3.0) * workload / kBandLo;
    const double value = workload * rng.uniform(1.0, 7.0);
    client.send(submit_msg(++seq, workload, window, value));
    const Message r = client.await_seq(server, seq, step_ms);
    EXPECT_EQ(r.type, sabotage ? MsgType::kRejected : MsgType::kAccepted) << i;
  }
  clock.advance(0.5);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq, step_ms).type, MsgType::kDraining);
  while (server.step(step_ms)) {
    client.read_socket();
  }
  client.read_socket();
  EXPECT_TRUE(server.finished());
}

/// A live shard's result holds aggregates only (its per-job rows went to
/// its outcomes.csv as its jobs retired); they must equal the replay's bit
/// for bit.
void expect_bitwise_equal_results(const sjs::sim::SimResult& live,
                                  const sjs::sim::SimResult& replay) {
  EXPECT_EQ(live.completed_value, replay.completed_value);
  EXPECT_EQ(live.generated_value, replay.generated_value);
  EXPECT_EQ(live.completed_count, replay.completed_count);
  EXPECT_EQ(live.expired_count, replay.expired_count);
  EXPECT_EQ(live.executed_total, replay.executed_total);
}

struct ShardReplay {
  std::size_t jobs = 0;
  sjs::sim::SimResult result;
};

/// Replays the shard journal <root>/shard<k> through a fresh engine: its
/// aggregates must equal the live shard's bit for bit, and the outcomes.csv
/// on disk what the replay writes byte for byte (the per-shard byte-diff
/// scripts/serve_smoke.sh applies in CI).
ShardReplay expect_shard_replays_exactly(const ShardedAdmissionServer& server,
                                         const std::string& root,
                                         std::size_t k) {
  const std::string shard_dir = root + "/shard" + std::to_string(k);
  const sjs::Instance replayed = sjs::load_instance_bundle(shard_dir);
  auto scheduler = make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  ShardReplay out{replayed.jobs().size(), engine.run_to_completion()};
  expect_bitwise_equal_results(server.shard(k).result(), out.result);
  const std::string replay_dir = fresh_dir("sharded_shard_replay");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(out.result, replayed.jobs(),
                              replay_dir + "/outcomes.csv");
  EXPECT_EQ(slurp(shard_dir + "/outcomes.csv"),
            slurp(replay_dir + "/outcomes.csv"))
      << "shard " << k;
  return out;
}

// ---------------------------------------------------------------------------
// Contract 1: shards=1 is byte-identical to the single-threaded server.

TEST(ShardedServeTest, SingleShardJournalIsByteIdenticalToAdmissionServer) {
  const std::string dir_single = fresh_dir("sharded_eq_single");
  const std::string dir_sharded = fresh_dir("sharded_eq_sharded");

  {
    FakeClock clock;
    AdmissionServer server(base_config(dir_single, 1),
                           make_scheduler("V-Dover", kBandLo, kBandHi), clock);
    run_scripted_session(server, clock, 0);
  }
  sjs::sim::SimResult sharded_live;
  {
    FakeClock clock;
    ShardedAdmissionServer server(base_config(dir_sharded, 1),
                                  scheduler_factory(), clock);
    run_scripted_session(server, clock, 1);
    ASSERT_EQ(server.shard_count(), 1u);
    sharded_live = server.shard(0).result();
    EXPECT_EQ(server.stats().accepted, 54u);
    EXPECT_EQ(server.stats().rejected, 6u);
  }

  // The shard0 bundle must match the single server's journal byte for byte
  // — admission stamps, job order, capacity band, outcomes, all of it.
  for (const char* file : {"/jobs.csv", "/capacity.csv", "/band.csv",
                           "/meta.csv", "/outcomes.csv"}) {
    const std::string single = slurp(dir_single + file);
    ASSERT_FALSE(single.empty()) << file;
    EXPECT_EQ(single, slurp(dir_sharded + "/shard0" + file)) << file;
  }

  // And the shard's bundle replays bit-exactly against its live result.
  const sjs::Instance replayed =
      sjs::load_instance_bundle(dir_sharded + "/shard0");
  auto scheduler = make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  expect_bitwise_equal_results(sharded_live, replay);
  // Per job: the shard's outcomes.csv equals the replay's.
  const std::string replay_dir = fresh_dir("sharded_eq_replay");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_dir + "/outcomes.csv");
  EXPECT_EQ(slurp(dir_sharded + "/shard0/outcomes.csv"),
            slurp(replay_dir + "/outcomes.csv"));
}

// ---------------------------------------------------------------------------
// Contract 2: shards=4 — every shard journal replays bit-exactly, and for an
// uncontended workload the union of outcomes equals a one-shard run.

/// Widely spaced identical-shape submissions: each job completes well before
/// the next arrives, so per-job fate is independent of which shard (and how
/// many) it lands on. 40 jobs, workload 0.25 into a 5.0 window at unit
/// capacity, 1 virtual second apart.
template <typename Server>
std::vector<std::uint64_t> run_spaced_session(Server& server, FakeClock& clock,
                                              int step_ms, int jobs) {
  server.start();
  TestClient client(server.port());
  std::vector<std::uint64_t> tickets;
  std::uint64_t seq = 0;
  for (int i = 0; i < jobs; ++i) {
    clock.advance(1.0);
    client.send(submit_msg(++seq, 0.25, 5.0, 1.0 + 0.01 * i));
    const Message r = client.await_seq(server, seq, step_ms);
    EXPECT_EQ(r.type, MsgType::kAccepted) << i;
    tickets.push_back(r.ticket);
  }
  clock.advance(2.0);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq, step_ms).type, MsgType::kDraining);
  while (server.step(step_ms)) {
    client.read_socket();
  }
  client.read_socket();
  EXPECT_TRUE(server.finished());
  return tickets;
}

struct JobRow {
  double release, workload, deadline, value;
};

bool operator<(const JobRow& a, const JobRow& b) { return a.release < b.release; }

std::vector<JobRow> bundle_rows(const std::string& dir) {
  std::vector<JobRow> rows;
  const sjs::Instance bundle = sjs::load_instance_bundle(dir);
  for (const sjs::Job& j : bundle.jobs()) {
    rows.push_back({j.release, j.workload, j.deadline, j.value});
  }
  return rows;
}

TEST(ShardedServeTest, FourShardJournalsReplayBitExactlyAndUnionMatches) {
  constexpr int kJobs = 40;
  const std::string dir_one = fresh_dir("sharded_union_one");
  const std::string dir_four = fresh_dir("sharded_union_four");

  {
    FakeClock clock;
    ShardedAdmissionServer server(base_config(dir_one, 1),
                                  scheduler_factory(), clock);
    run_spaced_session(server, clock, 1, kJobs);
  }

  FakeClock clock;
  ShardedAdmissionServer server(base_config(dir_four, 4), scheduler_factory(),
                                clock);
  const auto tickets = run_spaced_session(server, clock, 1, kJobs);
  ASSERT_EQ(server.shard_count(), 4u);

  // Tickets are dense globals in submission order.
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(tickets[i], static_cast<std::uint64_t>(i));
  }

  // Every shard got work (splitmix64 spreads even 40 consecutive tickets),
  // every shard journal is an independent bundle that replays bit-exactly,
  // and every admitted job completed (the workload is uncontended).
  std::vector<JobRow> union_rows;
  std::size_t union_jobs = 0;
  std::uint64_t union_completed = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const ShardReplay replay =
        expect_shard_replays_exactly(server, dir_four, k);
    EXPECT_GT(replay.jobs, 0u) << "shard " << k;
    union_jobs += replay.jobs;
    union_completed += replay.result.completed_count;
    for (const JobRow& row :
         bundle_rows(dir_four + "/shard" + std::to_string(k))) {
      union_rows.push_back(row);
    }
  }
  EXPECT_EQ(union_jobs, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(union_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kJobs));

  // Union of the four shard bundles == the one-shard bundle, field-exact
  // (releases are unique, so sorting by release aligns the rows).
  std::vector<JobRow> one_rows = bundle_rows(dir_one + "/shard0");
  std::sort(union_rows.begin(), union_rows.end());
  std::sort(one_rows.begin(), one_rows.end());
  ASSERT_EQ(union_rows.size(), one_rows.size());
  for (std::size_t i = 0; i < one_rows.size(); ++i) {
    EXPECT_EQ(union_rows[i].release, one_rows[i].release) << i;
    EXPECT_EQ(union_rows[i].workload, one_rows[i].workload) << i;
    EXPECT_EQ(union_rows[i].deadline, one_rows[i].deadline) << i;
    EXPECT_EQ(union_rows[i].value, one_rows[i].value) << i;
  }
}

// ---------------------------------------------------------------------------
// Ticket routing: cancel and query cross the plane to the owning shard.

TEST(ShardedServeTest, CancelAndQueryRouteToOwningShard) {
  FakeClock clock;
  const std::string dir = fresh_dir("sharded_routing");
  ShardedAdmissionServer server(base_config(dir, 4), scheduler_factory(),
                                clock);
  server.start();
  TestClient client(server.port());

  std::vector<std::uint64_t> tickets;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    client.send(submit_msg(seq, 1.0, 50.0, 1.0));
    const Message r = client.await_seq(server, seq, 1);
    ASSERT_EQ(r.type, MsgType::kAccepted);
    tickets.push_back(r.ticket);
    clock.advance(0.01);  // distinct stamps; jobs stay live (long windows)
  }

  // Jobs become cancellable once their release event fires.
  clock.advance(0.1);
  server.step(1);

  // QUERY each ticket: the acceptor must route by splitmix64 and the owning
  // shard must answer with live state.
  for (std::uint64_t i = 0; i < 4; ++i) {
    Message query;
    query.type = MsgType::kQuery;
    query.seq = 10 + i;
    query.ticket = tickets[i];
    client.send(query);
    const Message qr = client.await_seq(server, 10 + i, 1);
    ASSERT_EQ(qr.type, MsgType::kQueryReply) << i;
    EXPECT_TRUE(qr.code == static_cast<std::uint8_t>(JobState::kRunning) ||
                qr.code == static_cast<std::uint8_t>(JobState::kQueued))
        << static_cast<int>(qr.code);
    EXPECT_GT(qr.a, 0.0);  // remaining work
  }

  // Cancel ticket 2; its expiry must stay internal to the shard.
  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 20;
  cancel.ticket = tickets[2];
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 20, 1).type, MsgType::kCancelled);
  cancel.seq = 21;  // terminal now: second cancel fails on the owning shard
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 21, 1).type, MsgType::kCancelFailed);

  // Unknown tickets fail at the acceptor without touching any shard.
  cancel.seq = 22;
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 22, 1).type, MsgType::kCancelFailed);
  Message query;
  query.type = MsgType::kQuery;
  query.seq = 23;
  query.ticket = 999;
  client.send(query);
  const Message qr = client.await_seq(server, 23, 1);
  ASSERT_EQ(qr.type, MsgType::kQueryReply);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kUnknown));

  // Aggregate STATS from the acceptor, then drain.
  Message stats;
  stats.type = MsgType::kStats;
  stats.seq = 30;
  client.send(stats);
  const Message sr = client.await_seq(server, 30, 1);
  ASSERT_EQ(sr.type, MsgType::kStatsReply);
  EXPECT_EQ(sr.stats.submitted, 4u);
  EXPECT_EQ(sr.stats.accepted, 4u);
  EXPECT_EQ(sr.stats.cancelled, 1u);
  EXPECT_EQ(sr.stats.in_flight, 3u);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 31;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 31, 1).type, MsgType::kDraining);
  while (server.step(1)) client.read_socket();
  client.read_socket();

  // The cancelled job's forced expiry never reached the client.
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kExpired) {
      ++expired;
      EXPECT_NE(m.ticket, tickets[2]);
    }
    if (m.type == MsgType::kCompleted) ++completed;
  }
  // The three survivors resolved one way or the other at drain.
  EXPECT_EQ(expired + completed, 3u);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Metrics: the acceptor counts the plain server.* names once per plane, each
// shard only its ".shard<k>" breakdown, so nothing is double-counted.

TEST(ShardedServeTest, MetricsCountEachJobOncePerPlaneAndOncePerShard) {
  sjs::obs::MetricsRegistry metrics;
  FakeClock clock;
  ShardedAdmissionServer server(base_config("", 2), scheduler_factory(), clock,
                                &metrics);
  server.start();
  TestClient client(server.port());

  // One long job to cancel once its release event has fired.
  client.send(submit_msg(1, 1.0, 50.0, 1.0));
  const Message accepted = client.await_seq(server, 1, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);
  clock.advance(0.1);
  server.step(1);
  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 2;
  cancel.ticket = accepted.ticket;
  client.send(cancel);
  ASSERT_EQ(client.await_seq(server, 2, 1).type, MsgType::kCancelled);

  // An overloaded stream (about three times what two unit-capacity shards
  // serve), so jobs both complete and expire.
  sjs::Rng rng(4242);
  std::uint64_t seq = 2;
  for (int i = 0; i < 80; ++i) {
    clock.advance(rng.exponential_rate(60.0));
    const double workload = rng.exponential_mean(0.05);
    const double window = rng.uniform(1.05, 3.0) * workload / kBandLo;
    client.send(submit_msg(++seq, workload, window, 1.0));
    client.await_seq(server, seq, 1);
  }
  clock.advance(0.5);
  server.request_drain();
  while (server.step(1)) client.read_socket();
  ASSERT_TRUE(server.finished());

  const sjs::serve::StatsBody stats = server.stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 1u);
  const auto snap = metrics.snapshot();
  const auto counter = [&snap](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  };
  const std::pair<const char*, std::uint64_t> series[] = {
      {"server.jobs_accepted", stats.accepted},
      {"server.jobs_completed", stats.completed},
      {"server.jobs_expired", stats.expired},
      {"server.jobs_cancelled", stats.cancelled}};
  for (const auto& [name, expected] : series) {
    const std::string plain = name;
    EXPECT_EQ(counter(plain), static_cast<double>(expected)) << plain;
    EXPECT_EQ(counter(plain + ".shard0") + counter(plain + ".shard1"),
              static_cast<double>(expected))
        << plain;
  }
}

TEST(ShardedServeTest, SubmitsDuringDrainAreRefused) {
  FakeClock clock;
  ShardedAdmissionServer server(base_config("", 2), scheduler_factory(),
                                clock);
  server.start();
  TestClient client(server.port());

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 1;
  client.send(drain);
  client.send(submit_msg(2, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1, 1).type, MsgType::kDraining);
  const Message r = client.await_seq(server, 2, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kDraining));
  while (server.step(1)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(ShardedServeTest, ShedAtAFullChannelBurnsNoTicket) {
  // A one-slot request channel per shard, and bursts of SUBMITs, each in
  // one send so the acceptor decodes it in one turn: most of a burst
  // arrives while its shard still holds an earlier request and is shed at
  // the channel. The per-shard gate never sheds (max_in_flight is far above
  // the total), so every SHED is a channel refusal, and none may consume a
  // ticket: the accepted tickets stay dense across the bursts.
  constexpr std::uint64_t kBursts = 4;
  constexpr std::uint64_t kPerBurst = 32;
  constexpr std::uint64_t kTotal = kBursts * kPerBurst;
  const std::string dir = fresh_dir("sharded_shed_full_channel");
  FakeClock clock;
  ServerConfig config = base_config(dir, 2);
  config.channel_capacity = 1;
  config.max_in_flight = 4 * kTotal;
  ShardedAdmissionServer server(config, scheduler_factory(), clock);
  server.start();
  TestClient client(server.port());

  const auto answered = [&client] {
    std::uint64_t n = 0;
    for (const Message& m : client.inbox) {
      if (m.type == MsgType::kAccepted || m.type == MsgType::kShed ||
          m.type == MsgType::kRejected) {
        ++n;
      }
    }
    return n;
  };
  std::uint64_t seq = 0;
  for (std::uint64_t b = 0; b < kBursts; ++b) {
    std::vector<std::uint8_t> burst;
    for (std::uint64_t i = 0; i < kPerBurst; ++i) {
      std::uint8_t frame[sjs::serve::kMaxFrame];
      const std::size_t n = sjs::serve::encode_frame_into(
          frame, submit_msg(++seq, 0.01, 5.0, 1.0));
      burst.insert(burst.end(), frame, frame + n);
    }
    client.send_bytes(burst);
    for (int spin = 0; spin < 4000 && answered() < seq; ++spin) {
      server.step(1);
      client.read_socket();
    }
    clock.advance(0.01);
  }

  std::vector<std::uint64_t> tickets;
  std::uint64_t shed = 0;
  for (const Message& m : client.inbox) {
    ASSERT_NE(m.type, MsgType::kRejected) << "seq " << m.seq;
    if (m.type == MsgType::kAccepted) tickets.push_back(m.ticket);
    if (m.type == MsgType::kShed) ++shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(tickets.size() + shed, kTotal);
  EXPECT_EQ(server.stats().shed, shed);
  std::sort(tickets.begin(), tickets.end());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i], static_cast<std::uint64_t>(i));
  }

  clock.advance(2.0);
  server.request_drain();
  while (server.step(1)) client.read_socket();
  ASSERT_TRUE(server.finished());

  // The shard journals hold exactly the accepted jobs and replay
  // byte-exactly.
  std::size_t journaled = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    journaled += expect_shard_replays_exactly(server, dir, k).jobs;
  }
  EXPECT_EQ(journaled, tickets.size());
}

TEST(ShardedServeTest, AFailedStartLeavesNothingToWaitFor) {
  // start() builds the shards before it binds: a port the listener refuses
  // fails it before any shard thread runs, and the destructor must return
  // instead of waiting for reply channels no shard will ever close.
  FakeClock clock;
  ServerConfig config = base_config("", 2);
  config.port = 70000;
  ShardedAdmissionServer server(config, scheduler_factory(), clock);
  EXPECT_THROW(server.start(), std::invalid_argument);
}

/// Every file under `dir`, by path relative to it, with its bytes.
std::map<std::string, std::string> snapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[std::filesystem::relative(entry.path(), dir).string()] =
        slurp(entry.path().string());
  }
  return files;
}

TEST(ShardedServeTest, AFailedStartLeavesTheJournalUntouched) {
  // The listener binds before any journal preamble is written, so a start
  // that fails at the port (--port=70000) leaves a --journal directory
  // holding an earlier session's bundle byte-identical, in all three modes:
  // single, sharded (shard<k>/ bundles under the root) and the fleet.
  const std::string dir = fresh_dir("failed_start_journal");
  FakeClock clock;
  {
    ServerConfig earlier = base_config(dir, 0);
    AdmissionServer server(earlier,
                           make_scheduler("V-Dover", kBandLo, kBandHi), clock);
    TestClient client(server.start());
    client.send(submit_msg(1, 0.5, 4.0, 1.0));
    ASSERT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);
    Message drain;
    drain.type = MsgType::kDrain;
    drain.seq = 2;
    client.send(drain);
    while (server.step(0)) client.read_socket();
  }
  for (std::size_t k = 0; k < 2; ++k) {
    const auto shard =
        std::filesystem::path(dir) / ("shard" + std::to_string(k));
    std::filesystem::create_directories(shard);
    std::ofstream(shard / "jobs.csv") << "id,release,workload,deadline,value\n"
                                      << k << ",0,1,2,1\n";
  }
  const auto before = snapshot(dir);
  ASSERT_GT(before.size(), 6u);

  ServerConfig single = base_config(dir, 0);
  single.port = 70000;
  AdmissionServer inline_server(
      single, make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  EXPECT_THROW(inline_server.start(), std::invalid_argument);
  EXPECT_EQ(snapshot(dir), before) << "single";

  ServerConfig sharded = base_config(dir, 2);
  sharded.port = 70000;
  ShardedAdmissionServer sharded_server(sharded, scheduler_factory(), clock);
  EXPECT_THROW(sharded_server.start(), std::invalid_argument);
  EXPECT_EQ(snapshot(dir), before) << "sharded";

  sjs::cluster::ClusterServerConfig fleet;
  fleet.fleet = sjs::cluster::Fleet::heterogeneous(4);
  fleet.rental = "threshold";
  fleet.journal_dir = dir;
  fleet.port = 70000;
  sjs::cluster::ClusterServer fleet_server(fleet, clock);
  EXPECT_THROW(fleet_server.start(), std::invalid_argument);
  EXPECT_EQ(snapshot(dir), before) << "fleet";
}

}  // namespace
