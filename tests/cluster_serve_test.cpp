// Integration tests for the fleet-backed admission service
// (src/cluster/cluster_server.hpp).
//
// The flagship test drives a ClusterServer over a real loopback socket under
// a FakeClock, drains it, then loads the journal directory as a cluster
// bundle and re-runs it through a fresh Dispatcher + MultiEngine — the
// client's notifications (outcomes, completion times), the live aggregates,
// and the streamed outcomes.csv must match the replay BIT-EXACTLY (the
// contract `sjs_sim --cluster-bundle=` relies on). The live session retires
// its jobs as they resolve, so its result carries aggregates only. Rental
// *cost* is deliberately excluded from the bitwise comparison: the live
// session settles its account at the wall-driven drain instant, which lies
// past the last engine event the replay settles at (see docs/cluster.md).
//
// The remaining tests cover the job window doubling under a pinned base,
// fleet admission rejection, cancel semantics and the cancels journal,
// QUERY/STATS, and cross-run journal determinism.
#include <gtest/gtest.h>


#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_journal.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/dispatcher.hpp"
#include "loopback_client.hpp"
#include "temp_path.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace {

using sjs::cluster::ClusterServer;
using sjs::cluster::ClusterServerConfig;
using sjs::cluster::Fleet;
using sjs::serve::FakeClock;
using sjs::serve::JobState;
using sjs::serve::Message;
using sjs::serve::MsgType;
using sjs::serve::RejectReason;

using sjs::testutil::fresh_dir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

/// Three speed classes over a deliberately tight base band [30, 35]: the
/// admission floor (60, the large machine's guaranteed rate) sits close to
/// the fleet's actual serving rates (70/35/17.5), so admissible windows are
/// short and queueing genuinely expires jobs — the wide paper band would let
/// every admitted job survive any realistic backlog.
ClusterServerConfig scripted_config(const std::string& journal_dir) {
  ClusterServerConfig config;
  Fleet fleet;
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 2.0, 2.2});
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 1.0, 1.0});
  fleet.add(sjs::cluster::ServerSpec{30.0, 35.0, 0.5, 0.45});
  config.fleet = fleet;
  config.rental = "threshold";
  config.journal_dir = journal_dir;
  return config;
}

/// What one scripted session leaves behind. `jobs` is the client's own
/// record — its SUBMITs with the ACCEPTED stamps — and `notes` its
/// COMPLETED/EXPIRED notifications: a retiring session keeps neither.
struct SessionOutput {
  sjs::cloud::MultiSimResult live;
  std::vector<sjs::Job> jobs;
  std::vector<Message> notes;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t notified_completed = 0;
  std::uint64_t notified_expired = 0;
};

/// Drives one fixed 60-submission session against a FakeClock ClusterServer:
/// the offered load (~mean workload 40 every 1/8 virtual second ≈ 320/s)
/// swamps the 3-machine fleet's peak throughput of 122.5, so the EDF backlog
/// pushes jobs past their (floor-sized, short) windows and both COMPLETED
/// and EXPIRED notifications occur; every 10th submission is deliberately
/// inadmissible even on the strongest machine's floor.
SessionOutput run_scripted_session(const std::string& journal_dir) {
  FakeClock clock;
  ClusterServerConfig config = scripted_config(journal_dir);
  const double floor = config.fleet.admission_c_lo();
  ClusterServer server(std::move(config), clock);
  const int port = server.start();
  TestClient client(port);

  sjs::Rng rng(4242);
  SessionOutput out;
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(rng.exponential_rate(8.0));
    const double workload = rng.exponential_mean(40.0);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / floor    // fails Thm. 3(3)
                              : rng.uniform(1.05, 3.0) * workload / floor;
    const double value = workload * rng.uniform(1.0, 7.0);
    client.send(submit_msg(++seq, workload, window, value));
    const Message r = client.await_seq(server, seq);
    if (sabotage) {
      EXPECT_EQ(r.type, MsgType::kRejected);
      EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));
      ++out.rejected;
    } else {
      EXPECT_EQ(r.type, MsgType::kAccepted);
      EXPECT_EQ(r.ticket, out.jobs.size());
      // The job as admitted: the ACCEPTED stamp is its release, and the
      // gate adds the relative deadline to it.
      out.jobs.push_back(sjs::Job{static_cast<sjs::JobId>(r.ticket), r.a,
                                  workload, r.a + window, value});
      ++out.accepted;
    }
  }

  clock.advance(0.5);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) {
    client.read_socket();
  }
  client.read_socket();

  EXPECT_TRUE(server.finished());
  EXPECT_TRUE(server.journal_error().empty());
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kCompleted) ++out.notified_completed;
    if (m.type == MsgType::kExpired) ++out.notified_expired;
    if (m.type == MsgType::kCompleted || m.type == MsgType::kExpired) {
      out.notes.push_back(m);
    }
  }
  out.live = server.result();
  return out;
}

void expect_bitwise_equal_aggregates(const sjs::cloud::MultiSimResult& live,
                                     const sjs::cloud::MultiSimResult& replay) {
  EXPECT_EQ(live.completed_value, replay.completed_value);
  EXPECT_EQ(live.generated_value, replay.generated_value);
  EXPECT_EQ(live.completed_count, replay.completed_count);
  EXPECT_EQ(live.expired_count, replay.expired_count);
  EXPECT_EQ(live.executed_total, replay.executed_total);
}

/// Every job's notification agrees with the replay bit for bit: COMPLETED
/// at the replay's completion instant with the job's value, EXPIRED where
/// the replay expired it.
void expect_notes_match_replay(const std::vector<Message>& notes,
                               const std::vector<sjs::Job>& jobs,
                               const sjs::cloud::MultiSimResult& replay) {
  ASSERT_EQ(notes.size(), replay.outcomes.size());
  std::vector<int> seen(replay.outcomes.size(), 0);
  for (const Message& m : notes) {
    ASSERT_LT(m.ticket, replay.outcomes.size());
    const std::size_t i = m.ticket;
    ++seen[i];
    if (m.type == MsgType::kCompleted) {
      EXPECT_EQ(replay.outcomes[i], sjs::sim::JobOutcome::kCompleted)
          << "job " << i;
      EXPECT_EQ(std::memcmp(&m.b, &replay.completion_times[i], sizeof(double)),
                0)
          << "job " << i;
      EXPECT_EQ(m.a, jobs[i].value) << "job " << i;
    } else {
      EXPECT_EQ(replay.outcomes[i], sjs::sim::JobOutcome::kExpired)
          << "job " << i;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "job " << i << " notified " << seen[i] << "x";
  }
}

// ---------------------------------------------------------------------------
// The tentpole contract: a cluster journal replays bit-exactly.

TEST(ClusterServeTest, FakeClockSessionReplaysBitExactly) {
  const std::string dir = fresh_dir("cluster_replay");
  const SessionOutput session = run_scripted_session(dir);

  EXPECT_EQ(session.accepted, 54u);
  EXPECT_EQ(session.rejected, 6u);
  EXPECT_GT(session.notified_completed, 0u);
  EXPECT_GT(session.notified_expired, 0u);
  EXPECT_EQ(session.notified_completed + session.notified_expired,
            session.accepted);
  EXPECT_EQ(session.live.completed_count + session.live.expired_count,
            session.accepted);
  // The elastic fleet actually elasticised under the overload.
  EXPECT_GT(session.live.rented_peak, 1u);
  EXPECT_GT(session.live.rental_cost, 0.0);

  // The journal loads as a cluster bundle recording exactly the accepted
  // jobs with their %.17g admission stamps and the dispatcher's meta.
  const sjs::cluster::ClusterBundle bundle =
      sjs::cluster::load_cluster_bundle(dir);
  ASSERT_EQ(bundle.jobs.size(), session.jobs.size());
  ASSERT_EQ(bundle.fleet.size(), 3u);
  ASSERT_EQ(bundle.paths.size(), 3u);
  EXPECT_TRUE(bundle.cancels.empty());
  EXPECT_EQ(bundle.meta.at("scheduler"), "Cluster-EDF/threshold");
  EXPECT_EQ(bundle.meta.at("sched_key"), "deadline");
  EXPECT_EQ(bundle.meta.at("rental"), "threshold");
  EXPECT_EQ(bundle.meta.at("cluster"), "3");
  for (std::size_t i = 0; i < session.jobs.size(); ++i) {
    EXPECT_EQ(bundle.jobs[i].release, session.jobs[i].release);
    EXPECT_EQ(bundle.jobs[i].workload, session.jobs[i].workload);
    EXPECT_EQ(bundle.jobs[i].deadline, session.jobs[i].deadline);
    EXPECT_EQ(bundle.jobs[i].value, session.jobs[i].value);
  }

  // Replay through a fresh dispatcher + engine, exactly as
  // `sjs_sim --cluster-bundle=` does: identical outcomes.
  sjs::cluster::DispatcherConfig dc;
  dc.key = sjs::cloud::GlobalKey::kDeadline;
  dc.budget = std::stod(bundle.meta.at("budget"));
  dc.min_rented = std::stoul(bundle.meta.at("min_rented"));
  sjs::cluster::Dispatcher dispatcher(
      bundle.fleet, dc,
      sjs::cluster::make_rental_controller(bundle.meta.at("rental")));
  const sjs::cloud::MultiSimResult replay =
      sjs::cluster::run_cluster(bundle.jobs, bundle.paths, dispatcher);
  EXPECT_TRUE(session.live.outcomes.empty());  // every job retired
  expect_bitwise_equal_aggregates(session.live, replay);
  expect_notes_match_replay(session.notes, bundle.jobs, replay);
  // Rental decisions replay exactly too — only the settle horizon differs
  // (live settles at the wall-driven drain instant), so cost is compared
  // directionally, not bitwise.
  EXPECT_EQ(session.live.rent_events, replay.rent_events);
  EXPECT_EQ(session.live.rented_peak, replay.rented_peak);
  EXPECT_EQ(session.live.dispatches, replay.dispatches);
  EXPECT_EQ(session.live.migrations, replay.migrations);
  EXPECT_GE(session.live.rental_cost, replay.rental_cost);

  // outcomes.csv streamed as jobs retired must equal the one the replay
  // writes — the same byte-diff scripts/serve_smoke.sh applies to the
  // binaries.
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  const std::string replay_dir = fresh_dir("cluster_replay_outcomes");
  std::filesystem::create_directories(replay_dir);
  sjs::cloud::save_multi_outcomes_csv(replay, bundle.jobs,
                                      replay_dir + "/outcomes.csv");
  EXPECT_FALSE(live_csv.empty());
  EXPECT_EQ(live_csv, slurp(replay_dir + "/outcomes.csv"));
}

/// Runs `command`, returning its exit status and capturing stdout+stderr.
int run_command(const std::string& command, std::string* output) {
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) output->append(buf, n);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ClusterServeTest, SjsSimChecksInvariantsOnClusterReplay) {
  // sjs_sim --check-invariants on the fleet paths: a cluster journal's
  // replay streams through the invariant checker (each machine checked
  // against its own path) and reports; the --cluster tables refuse the
  // flag instead of ignoring it.
  const std::string dir = fresh_dir("cluster_check_invariants");
  run_scripted_session(dir);
  std::string out;
  EXPECT_EQ(run_command(std::string(SJS_SIM_BIN) + " --cluster-bundle=" + dir +
                            " --check-invariants",
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("invariants: all hold"), std::string::npos) << out;

  std::string refused;
  EXPECT_EQ(run_command(std::string(SJS_SIM_BIN) +
                            " --cluster=2 --cluster-runs=1 --check-invariants",
                        &refused),
            1)
      << refused;
  EXPECT_NE(refused.find("--check-invariants"), std::string::npos) << refused;
}

TEST(ClusterServeTest, LongJobPinsTheWindowAndReplayStaysExact) {
  // The fleet's analogue of ServeTest.LongDeadlineJobPinsTheWindowAndReplay-
  // StaysExact. Job 0 needs at least 30 virtual seconds even on the fastest
  // machine, so it stays unresolved while 40 short jobs come and go: the
  // unretired span outgrows the ring pre-sized from max_in_flight = 8, and
  // the full ring spills job 0 to the straggler store instead of doubling.
  // There is one ring, the engine's job window, and the session's gauges
  // read it. QUERY of a spilled ticket reads the live job, QUERY of a
  // retired one still reads its outcome, and the streamed outcomes.csv
  // (job 0's row first, the later rows held until it is written) replays
  // byte-identically.
  const std::string dir = fresh_dir("cluster_window_doubling");
  FakeClock clock;
  ClusterServerConfig config = scripted_config(dir);
  config.max_in_flight = 8;
  ClusterServer server(std::move(config), clock);
  TestClient client(server.start());
  EXPECT_EQ(server.window_slots(), 8u);
  EXPECT_EQ(server.engine().job_state().capacity(), 8u);

  std::uint64_t seq = 0;
  client.send(submit_msg(++seq, 2100.0, 100.0, 30.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  for (int i = 0; i < 40; ++i) {
    clock.advance(0.3);
    client.send(submit_msg(++seq, 3.0, 0.5, 1.0));
    ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  }
  server.step(0);
  {
    // Job 0 is spilled, and the ring stayed at its pre-size.
    const sjs::sim::JobTable& window = server.engine().job_state();
    ASSERT_EQ(window.straggler_count(), 1u);
    EXPECT_EQ(window.straggler(0), 0);
    EXPECT_GT(window.base(), 0);
    EXPECT_TRUE(window.holds(0));
    EXPECT_EQ(window.route(0).ticket, 0u);
  }
  EXPECT_GT(server.window_peak(), 8u);
  EXPECT_EQ(server.window_slots(), 8u);
  EXPECT_EQ(server.window_slots(), server.engine().job_state().capacity());
  EXPECT_GT(server.outcome_rows_held(), 0u);
  Message spilled_query;
  spilled_query.type = MsgType::kQuery;
  spilled_query.seq = ++seq;
  spilled_query.ticket = 0;
  client.send(spilled_query);
  const Message live = client.await_seq(server, seq);
  ASSERT_EQ(live.type, MsgType::kQueryReply);
  EXPECT_TRUE(live.code == static_cast<std::uint8_t>(JobState::kRunning) ||
              live.code == static_cast<std::uint8_t>(JobState::kQueued))
      << static_cast<int>(live.code);
  EXPECT_GT(live.a, 0.0);  // work left

  // Job 0 resolves by its deadline at t = 100; then every job retires.
  clock.advance(100.0);
  server.step(0);
  client.read_socket();
  EXPECT_EQ(server.engine().job_state().base(), 41);
  EXPECT_EQ(server.engine().job_state().span(), 0u);
  EXPECT_EQ(server.engine().job_state().straggler_count(), 0u);
  EXPECT_EQ(server.window_stragglers(), 1u);
  EXPECT_EQ(server.window_slots(), 8u);
  std::vector<MsgType> notified(41, MsgType::kError);
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kCompleted || m.type == MsgType::kExpired) {
      ASSERT_LT(m.ticket, notified.size());
      notified[m.ticket] = m.type;
    }
  }
  for (const std::uint64_t ticket : {0u, 5u, 40u}) {
    ASSERT_NE(notified[ticket], MsgType::kError) << "ticket " << ticket;
    Message query;
    query.type = MsgType::kQuery;
    query.seq = ++seq;
    query.ticket = ticket;
    client.send(query);
    const Message qr = client.await_seq(server, seq);
    ASSERT_EQ(qr.type, MsgType::kQueryReply);
    const JobState want = notified[ticket] == MsgType::kCompleted
                              ? JobState::kCompleted
                              : JobState::kExpired;
    EXPECT_EQ(qr.code, static_cast<std::uint8_t>(want)) << "ticket " << ticket;
  }

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_TRUE(server.journal_error().empty());

  const std::string replay_csv = dir + "_replay_outcomes.csv";
  std::string out;
  ASSERT_EQ(run_command(std::string(SJS_SIM_BIN) + " --cluster-bundle=" + dir +
                            " --outcomes-csv=" + replay_csv,
                        &out),
            0)
      << out;
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  EXPECT_FALSE(live_csv.empty());
  EXPECT_EQ(live_csv, slurp(replay_csv));
}


TEST(ClusterServeTest, SpilledStragglersCompleteAndExpireAndReplayStaysExact) {
  // Two long jobs pin the base of the fleet's 8-slot window while short
  // jobs come and go, so both spill. Job 0 completes; job 1, with far more
  // work than the fleet can serve in its window, expires. Each resolves
  // after later jobs retired, so the journal holds those rows until the
  // stragglers' rows are written; the streamed outcomes.csv still replays
  // byte-identically.
  const std::string dir = fresh_dir("cluster_stragglers_resolve");
  FakeClock clock;
  ClusterServerConfig config = scripted_config(dir);
  config.max_in_flight = 8;
  config.admission_check = false;  // admits job 1, which cannot finish
  ClusterServer server(std::move(config), clock);
  TestClient client(server.start());

  std::uint64_t seq = 0;
  client.send(submit_msg(++seq, 2100.0, 100.0, 30.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  clock.advance(0.1);
  client.send(submit_msg(++seq, 1.0e6, 60.0, 20.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  std::size_t spilled = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(0.3);
    client.send(submit_msg(++seq, 3.0, 0.5, 1.0));
    ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
    const sjs::sim::JobTable& window = server.engine().job_state();
    ASSERT_EQ(window.capacity(), 8u);
    spilled = std::max(spilled, window.straggler_count());
  }
  EXPECT_EQ(spilled, 2u);
  clock.advance(200.0);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_TRUE(server.journal_error().empty());
  EXPECT_EQ(server.window_slots(), 8u);
  EXPECT_EQ(server.window_stragglers(), 2u);
  EXPECT_GT(server.outcome_rows_held(), 0u);

  const std::string live_csv = slurp(dir + "/outcomes.csv");
  EXPECT_NE(live_csv.find("\n0,completed,"), std::string::npos) << live_csv;
  EXPECT_NE(live_csv.find("\n1,expired,"), std::string::npos) << live_csv;
  const std::string replay_csv = dir + "_replay_outcomes.csv";
  std::string out;
  ASSERT_EQ(run_command(std::string(SJS_SIM_BIN) + " --cluster-bundle=" + dir +
                            " --outcomes-csv=" + replay_csv,
                        &out),
            0)
      << out;
  EXPECT_EQ(live_csv, slurp(replay_csv));
}

TEST(ClusterServeTest, TwoSubmitsAtVirtualZeroReplayByteExactly) {
  // Without a clock advance the second SUBMIT is stamped nextafter(0), the
  // smallest subnormal. Its jobs.csv row must load back bit-exactly, so
  // the journal replays.
  const std::string dir = fresh_dir("cluster_subnormal_stamp");
  FakeClock clock;
  ClusterServer server(scripted_config(dir), clock);
  TestClient client(server.start());
  client.send(submit_msg(1, 3.0, 1.0, 1.0));
  const Message first = client.await_seq(server, 1);
  client.send(submit_msg(2, 3.0, 1.0, 2.0));
  const Message second = client.await_seq(server, 2);
  ASSERT_EQ(first.type, MsgType::kAccepted);
  ASSERT_EQ(second.type, MsgType::kAccepted);
  EXPECT_EQ(first.a, 0.0);
  EXPECT_EQ(second.a, std::nextafter(0.0, 1.0));
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 3;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  ASSERT_TRUE(server.finished());

  const sjs::cluster::ClusterBundle bundle =
      sjs::cluster::load_cluster_bundle(dir);
  ASSERT_EQ(bundle.jobs.size(), 2u);
  EXPECT_EQ(bundle.jobs[1].release, second.a);
  const std::string replay_csv = dir + "_replay_outcomes.csv";
  std::string out;
  ASSERT_EQ(run_command(std::string(SJS_SIM_BIN) + " --cluster-bundle=" + dir +
                            " --outcomes-csv=" + replay_csv,
                        &out),
            0)
      << out;
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  EXPECT_NE(live_csv.find("\n1,completed,"), std::string::npos) << live_csv;
  EXPECT_EQ(live_csv, slurp(replay_csv));
}

TEST(ClusterServeTest, SpilledTicketsAnswerQueryAndCancel) {
  // The fleet's window spills two long jobs: QUERY of a spilled ticket
  // reads the live job, CANCEL of one cancels it, and its ticket then
  // answers like any retired ticket. Short jobs resolve before the next
  // arrives, so the gate sheds none.
  FakeClock clock;
  ClusterServerConfig config = scripted_config("");
  config.max_in_flight = 4;
  ClusterServer server(std::move(config), clock);
  TestClient client(server.start());
  std::uint64_t seq = 0;
  const auto submit = [&](double workload, double window) {
    client.send(submit_msg(++seq, workload, window, 1.0));
    const Message r = client.await_seq(server, seq);
    EXPECT_EQ(r.type, MsgType::kAccepted);
    return r;
  };
  const auto request = [&](MsgType type, std::uint64_t ticket) {
    Message m;
    m.type = type;
    m.seq = ++seq;
    m.ticket = ticket;
    client.send(m);
    return client.await_seq(server, seq);
  };
  const Message first = submit(2100.0, 100.0);
  clock.advance(0.1);
  const Message second = submit(2100.0, 100.0);
  for (int i = 0; i < 12; ++i) {
    clock.advance(0.6);
    submit(3.0, 0.5);
  }
  ASSERT_EQ(server.engine().job_state().straggler_count(), 2u);
  Message r = request(MsgType::kQuery, first.ticket);
  EXPECT_EQ(r.type, MsgType::kQueryReply);
  EXPECT_TRUE(r.code == static_cast<std::uint8_t>(JobState::kRunning) ||
              r.code == static_cast<std::uint8_t>(JobState::kQueued))
      << static_cast<int>(r.code);
  EXPECT_GT(r.a, 0.0);
  r = request(MsgType::kCancel, second.ticket);
  EXPECT_EQ(r.type, MsgType::kCancelled);
  EXPECT_EQ(server.engine().job_state().straggler_count(), 1u);
  r = request(MsgType::kQuery, second.ticket);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(JobState::kExpired));
  r = request(MsgType::kCancel, second.ticket);
  EXPECT_EQ(r.type, MsgType::kCancelFailed);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().shed, 0u);
  EXPECT_EQ(server.window_slots(), 4u);
  EXPECT_EQ(server.window_stragglers(), 2u);
}
TEST(ClusterServeTest, ScriptedSessionIsDeterministicAcrossRuns) {
  const std::string dir_a = fresh_dir("cluster_det_a");
  const std::string dir_b = fresh_dir("cluster_det_b");
  const SessionOutput a = run_scripted_session(dir_a);
  const SessionOutput b = run_scripted_session(dir_b);
  expect_bitwise_equal_aggregates(a.live, b.live);
  EXPECT_EQ(a.live.rental_cost, b.live.rental_cost);
  ASSERT_EQ(a.notes.size(), b.notes.size());
  for (std::size_t i = 0; i < a.notes.size(); ++i) {
    EXPECT_EQ(a.notes[i].ticket, b.notes[i].ticket) << i;
    EXPECT_EQ(a.notes[i].type, b.notes[i].type) << i;
    EXPECT_EQ(std::memcmp(&a.notes[i].b, &b.notes[i].b, sizeof(double)), 0)
        << i;
  }
  for (const char* file :
       {"/fleet.csv", "/server0.csv", "/server1.csv", "/server2.csv",
        "/band.csv", "/meta.csv", "/jobs.csv", "/cancels.csv",
        "/outcomes.csv"}) {
    EXPECT_EQ(slurp(dir_a + file), slurp(dir_b + file)) << file;
  }
}

// ---------------------------------------------------------------------------
// Protocol-visible behaviours, one at a time.

TEST(ClusterServeTest, RejectsJobsHopelessEvenOnTheStrongestMachine) {
  FakeClock clock;
  ClusterServer server(scripted_config(""), clock);
  TestClient client(server.start());
  // Fleet floor is 60 (the large machine's guaranteed rate): workload 600
  // needs a 10-second window even on the best floor, so a window of 4 is
  // hopeless and one of 12 is admissible.
  client.send(submit_msg(1, 600.0, 4.0, 1.0));
  Message r = client.await_seq(server, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));
  client.send(submit_msg(2, 600.0, 12.0, 1.0));
  r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kAccepted);
  server.request_drain();
  while (server.step(0)) client.read_socket();
}

TEST(ClusterServeTest, CancelSemanticsAndCancelJournal) {
  const std::string dir = fresh_dir("cluster_cancel");
  FakeClock clock;
  ClusterServer server(scripted_config(dir), clock);
  TestClient client(server.start());

  // Big enough that the large machine (rate 70) is still chewing on it when
  // the cancel lands at virtual t = 0.5.
  client.send(submit_msg(1, 350.0, 200.0, 5.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  // The job becomes cancellable once its release event has fired.
  clock.advance(0.5);
  server.step(0);

  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 2;
  cancel.ticket = accepted.ticket;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 2).type, MsgType::kCancelled);

  cancel.seq = 3;  // terminal job: cancelling again fails
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kCancelFailed);
  cancel.seq = 4;  // as does a ticket that never existed
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kCancelFailed);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 5;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 5).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();

  EXPECT_EQ(server.result().expired_count, 1u);
  EXPECT_EQ(server.result().completed_count, 0u);
  // The cancellation is journalled, and a cancel-bearing bundle says so.
  const auto bundle = sjs::cluster::load_cluster_bundle(dir);
  ASSERT_EQ(bundle.cancels.size(), 1u);
  EXPECT_EQ(bundle.cancels[0].second, 0u);
  EXPECT_GT(bundle.cancels[0].first, 0.0);
}

TEST(ClusterServeTest, QueryAndStatsReflectTheFleet) {
  FakeClock clock;
  ClusterServerConfig config = scripted_config("");
  ClusterServer server(std::move(config), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 70.0, 100.0, 2.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  Message query;
  query.type = MsgType::kQuery;
  query.seq = 2;
  query.ticket = accepted.ticket;
  client.send(query);
  Message qr = client.await_seq(server, 2);
  ASSERT_EQ(qr.type, MsgType::kQueryReply);
  EXPECT_TRUE(qr.code == static_cast<std::uint8_t>(JobState::kRunning) ||
              qr.code == static_cast<std::uint8_t>(JobState::kQueued))
      << static_cast<int>(qr.code);
  EXPECT_GT(qr.a, 0.0);  // remaining work

  // The large machine serves at 70: workload 70 finishes well before t=5.
  clock.advance(5.0);
  query.seq = 3;
  client.send(query);
  qr = client.await_seq(server, 3);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kCompleted));

  query.seq = 4;
  query.ticket = 777;
  client.send(query);
  qr = client.await_seq(server, 4);
  EXPECT_EQ(qr.code, static_cast<std::uint8_t>(JobState::kUnknown));

  Message stats;
  stats.type = MsgType::kStats;
  stats.seq = 5;
  client.send(stats);
  const Message sr = client.await_seq(server, 5);
  ASSERT_EQ(sr.type, MsgType::kStatsReply);
  EXPECT_EQ(sr.stats.submitted, 1u);
  EXPECT_EQ(sr.stats.accepted, 1u);
  EXPECT_EQ(sr.stats.completed, 1u);
  EXPECT_EQ(sr.stats.in_flight, 0u);
  EXPECT_EQ(sr.stats.completed_value, 2.0);
  EXPECT_GE(sr.stats.virtual_now, 1.0);

  server.request_drain();
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
}

TEST(ClusterServeTest, PublishesClusterMetricsAtDrain) {
  sjs::obs::MetricsRegistry metrics;
  FakeClock clock;
  ClusterServer server(scripted_config(""), clock, &metrics);
  TestClient client(server.start());
  client.send(submit_msg(1, 10.0, 20.0, 1.0));
  ASSERT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);
  clock.advance(1.0);
  server.request_drain();
  while (server.step(0)) client.read_socket();
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("cluster.dispatches"), 1.0);
  EXPECT_GT(snap.counters.at("cluster.cost_accrued"), 0.0);
  EXPECT_EQ(snap.gauges.at("cluster.rented_machines"), 1.0);
  EXPECT_GT(snap.gauges.at("cluster.util.server0"), 0.0);
}

}  // namespace
