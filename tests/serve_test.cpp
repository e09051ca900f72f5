// Integration tests for the real-time admission service (src/serve/).
//
// The flagship test drives an AdmissionServer over a real loopback socket
// under a FakeClock — fully deterministic, no wall-clock dependence — and
// then proves the journal-replay contract: loading the journal directory as
// an instance bundle and re-running it through a fresh engine + scheduler
// reproduces the live session's outcomes, completion times, and captured
// value BIT-EXACTLY. A second copy of the same scripted session must produce
// a byte-identical journal (determinism across runs).
//
// The remaining tests cover the protocol-visible behaviours one at a time:
// Thm. 3(3) admission rejection, max-in-flight shedding, cancel semantics,
// QUERY/STATS, malformed-frame connection teardown, and a threaded
// real-clock loadgen session (the TSan CI job runs this file).
#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/cluster_server.hpp"
#include "jobs/bundle.hpp"
#include "obs/metrics.hpp"
#include "loopback_client.hpp"
#include "temp_path.hpp"
#include "sched/factory.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
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

constexpr double kBandLo = 0.5;  // band floor below the unit capacity path:
constexpr double kBandHi = 1.0;  // admission windows have real slack to cut

ServerConfig scripted_config(const std::string& journal_dir) {
  ServerConfig config;
  config.scheduler_name = "V-Dover";
  config.capacity = sjs::cap::CapacityProfile(1.0);
  config.c_lo = kBandLo;
  config.c_hi = kBandHi;
  config.journal_dir = journal_dir;
  return config;
}

/// What one scripted live session leaves behind, copied out before the
/// server is destroyed so replay comparisons can run afterwards. `jobs` and
/// `notes` are the client's own record — its SUBMITs with the ACCEPTED
/// stamps, and every COMPLETED/EXPIRED it received — independent of the
/// server's state (a live session keeps no per-job list: its result holds
/// aggregates only).
struct SessionOutput {
  sjs::sim::SimResult live;
  std::vector<sjs::Job> jobs;
  std::vector<Message> notes;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t notified_completed = 0;
  std::uint64_t notified_expired = 0;
};

/// Drives one fixed 60-submission session (deterministic Rng shapes, every
/// 10th submission deliberately inadmissible) against a FakeClock server,
/// drains it, and returns the live result. Identical inputs every call —
/// the determinism test runs it twice and diffs the journals.
SessionOutput run_scripted_session(const std::string& journal_dir) {
  FakeClock clock;
  AdmissionServer server(scripted_config(journal_dir),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  const int port = server.start();
  TestClient client(port);

  sjs::Rng rng(4242);
  SessionOutput out;
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    // ~20 submissions per virtual second against unit capacity with mean
    // workload 0.05: the processor saturates, so V-Dover must abandon work
    // and both COMPLETED and EXPIRED notifications occur.
    clock.advance(rng.exponential_rate(20.0));
    const double workload = rng.exponential_mean(0.05);
    const bool sabotage = (i % 10) == 9;
    const double window = sabotage
                              ? 0.5 * workload / kBandLo   // fails Thm. 3(3)
                              : rng.uniform(1.05, 3.0) * workload / kBandLo;
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

  // Let some backlog resolve in virtual time before draining.
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

void expect_bitwise_equal_results(const sjs::sim::SimResult& live,
                                  const sjs::sim::SimResult& replay) {
  // Exact, not approximate: the replay contract is bit-for-bit. The live
  // result carries aggregates only; per-job fidelity is checked against
  // the client's notifications and the journal's outcomes.csv.
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
                               const sjs::Instance& replayed,
                               const sjs::sim::SimResult& replay) {
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
      EXPECT_EQ(m.a, replayed.jobs()[i].value) << "job " << i;
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
// The tentpole contract: journal replay is bit-exact.

TEST(ServeTest, FakeClockSessionReplaysBitExactly) {
  const std::string dir = fresh_dir("serve_replay");
  const SessionOutput session = run_scripted_session(dir);

  EXPECT_EQ(session.accepted, 54u);
  EXPECT_EQ(session.rejected, 6u);
  EXPECT_GT(session.notified_completed, 0u);
  EXPECT_GT(session.notified_expired, 0u);
  // Every accepted job was resolved and notified exactly once by the drain.
  EXPECT_EQ(session.notified_completed + session.notified_expired,
            session.accepted);
  EXPECT_EQ(session.live.completed_count + session.live.expired_count,
            session.accepted);

  // The journal directory is a loadable bundle recording exactly the
  // accepted jobs with their %.17g admission stamps.
  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), session.jobs.size());
  EXPECT_EQ(replayed.c_lo(), kBandLo);
  EXPECT_EQ(replayed.c_hi(), kBandHi);
  for (std::size_t i = 0; i < session.jobs.size(); ++i) {
    EXPECT_EQ(replayed.jobs()[i].release, session.jobs[i].release);
    EXPECT_EQ(replayed.jobs()[i].workload, session.jobs[i].workload);
    EXPECT_EQ(replayed.jobs()[i].deadline, session.jobs[i].deadline);
    EXPECT_EQ(replayed.jobs()[i].value, session.jobs[i].value);
  }
  const auto meta = sjs::serve::read_journal_meta(dir);
  EXPECT_EQ(meta.at("scheduler"), "V-Dover");
  EXPECT_TRUE(sjs::serve::read_journal_cancels(dir).empty());

  // Replay through a fresh engine + scheduler: identical outcomes.
  auto scheduler = make_scheduler(meta.at("scheduler"), replayed.c_lo(),
                                  replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  expect_bitwise_equal_results(session.live, replay);
  expect_notes_match_replay(session.notes, replayed, replay);

  // outcomes.csv streamed as the session retired its jobs must equal the one a replay would write —
  // same check scripts/serve_smoke.sh applies to the installed binaries.
  const std::string live_csv = slurp(dir + "/outcomes.csv");
  const std::string replay_csv_path = fresh_dir("serve_replay_outcomes");
  std::filesystem::create_directories(replay_csv_path);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_csv_path + "/outcomes.csv");
  EXPECT_FALSE(live_csv.empty());
  EXPECT_EQ(live_csv, slurp(replay_csv_path + "/outcomes.csv"));
}

TEST(ServeTest, ScriptedSessionIsDeterministicAcrossRuns) {
  const std::string dir_a = fresh_dir("serve_det_a");
  const std::string dir_b = fresh_dir("serve_det_b");
  const SessionOutput a = run_scripted_session(dir_a);
  const SessionOutput b = run_scripted_session(dir_b);
  expect_bitwise_equal_results(a.live, b.live);
  ASSERT_EQ(a.notes.size(), b.notes.size());
  for (std::size_t i = 0; i < a.notes.size(); ++i) {
    EXPECT_EQ(a.notes[i].ticket, b.notes[i].ticket);
    EXPECT_EQ(a.notes[i].type, b.notes[i].type);
    EXPECT_EQ(std::memcmp(&a.notes[i].b, &b.notes[i].b, sizeof(double)), 0);
  }
  // Byte-identical journals: admission stamps included.
  for (const char* file : {"/jobs.csv", "/capacity.csv", "/band.csv",
                           "/meta.csv", "/outcomes.csv"}) {
    EXPECT_EQ(slurp(dir_a + file), slurp(dir_b + file)) << file;
  }
}

// ---------------------------------------------------------------------------
// Protocol-visible behaviours, one at a time.

TEST(ServeTest, InadmissibleAndInvalidSubmitsAreRejected) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock);
  TestClient client(server.start());

  // d − r < p / c_lo: workload 1 needs a window of at least 2 at c_lo = 0.5.
  client.send(submit_msg(1, 1.0, 1.9, 1.0));
  Message r = client.await_seq(server, 1);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInadmissible));

  client.send(submit_msg(2, -1.0, 1.0, 1.0));
  r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kInvalid));

  client.send(submit_msg(3, 1.0, 2.5, 1.0));
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kAccepted);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(ServeTest, AdmissionCheckCanBeDisabled) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  config.admission_check = false;
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock);
  TestClient client(server.start());
  client.send(submit_msg(1, 1.0, 1.9, 1.0));  // inadmissible, but accepted
  EXPECT_EQ(client.await_seq(server, 1).type, MsgType::kAccepted);
}

TEST(ServeTest, OverInFlightLimitSheds) {
  FakeClock clock;
  ServerConfig config = scripted_config("");
  config.max_in_flight = 2;
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock);
  TestClient client(server.start());
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    client.send(submit_msg(seq, 0.5, 10.0, 1.0));
    EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  }
  client.send(submit_msg(3, 0.5, 10.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kShed);

  // Shedding is load-, not state-based: once a job resolves, capacity frees.
  clock.advance(20.0);
  client.send(submit_msg(4, 0.5, 10.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kAccepted);
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(ServeTest, CancelSuppressesExpiryNotification) {
  FakeClock clock;
  const std::string dir = fresh_dir("serve_cancel");
  AdmissionServer server(scripted_config(dir),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 1.0, 4.0, 1.0));
  const Message accepted = client.await_seq(server, 1);
  ASSERT_EQ(accepted.type, MsgType::kAccepted);

  // A job only becomes cancellable once its release event has fired, which
  // happens on the first pump strictly after the admission stamp.
  clock.advance(0.5);
  server.step(0);

  Message cancel;
  cancel.type = MsgType::kCancel;
  cancel.seq = 2;
  cancel.ticket = accepted.ticket;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 2).type, MsgType::kCancelled);

  // Cancelling again (terminal job) fails.
  cancel.seq = 3;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 3).type, MsgType::kCancelFailed);
  // As does a ticket that never existed.
  cancel.seq = 4;
  cancel.ticket = 999;
  client.send(cancel);
  EXPECT_EQ(client.await_seq(server, 4).type, MsgType::kCancelFailed);

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 5;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, 5).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  client.read_socket();

  // The forced expiry stays internal: no kExpired reaches the client.
  for (const Message& m : client.inbox) {
    EXPECT_NE(m.type, MsgType::kExpired);
    EXPECT_NE(m.type, MsgType::kCompleted);
  }
  EXPECT_EQ(server.stats().cancelled, 1u);
  // The journal records the cancel, marking the session non-replayable.
  const auto cancels = sjs::serve::read_journal_cancels(dir);
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].second, static_cast<sjs::JobId>(accepted.ticket));
}

TEST(ServeTest, QueryAndStatsReportLiveState) {
  FakeClock clock;
  AdmissionServer server(scripted_config(""),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  TestClient client(server.start());

  client.send(submit_msg(1, 1.0, 10.0, 2.0));
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

  clock.advance(5.0);  // unit capacity: workload 1 finishes well before 5
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
}

TEST(ServeTest, LongDeadlineJobPinsTheWindowAndReplayStaysExact) {
  // Job 0 needs 10 of its 40 virtual seconds on the unit path, so short
  // jobs keep preempting it and it stays unresolved while dozens of them
  // come and go. The unretired span outgrows the ring pre-sized from
  // max_in_flight = 8, so the full ring spills job 0 (every lane of it,
  // its reply route included) to the straggler store and moves its base
  // on: the engine's job window (the one ring over admission ids; the
  // session's reply routes are a lane of it, and its window gauges read
  // it) stays at 8 slots. The rows of the jobs that retire meanwhile are
  // held until job 0's is written. Replay must not notice.
  const std::string dir = fresh_dir("serve_window_doubling");
  FakeClock clock;
  ServerConfig config = scripted_config(dir);
  config.max_in_flight = 8;
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock);
  TestClient client(server.start());
  EXPECT_EQ(server.window_slots(), 8u);

  std::uint64_t seq = 0;
  client.send(submit_msg(++seq, 10.0, 40.0, 30.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  bool spilled = false;
  for (int i = 0; i < 40; ++i) {
    clock.advance(0.3);
    client.send(submit_msg(++seq, 0.05, 0.5, 0.1));
    ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
    const sjs::sim::JobTable& window = server.engine().job_state();
    ASSERT_EQ(window.capacity(), 8u);
    if (window.straggler_count() > 0) {
      EXPECT_EQ(window.straggler(0), 0);
      EXPECT_GT(window.base(), 0);
      spilled = true;
    }
  }
  EXPECT_TRUE(spilled) << "job 0 never spilled";
  clock.advance(0.5);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  client.read_socket();

  EXPECT_GT(server.window_peak(), 8u);
  EXPECT_EQ(server.window_slots(), 8u);
  EXPECT_EQ(server.engine().job_state().capacity(), 8u);
  EXPECT_GE(server.window_stragglers(), 1u);
  EXPECT_GT(server.outcome_rows_held(), 0u);
  EXPECT_EQ(server.engine().job_state().base(), 41);  // all retired
  EXPECT_EQ(server.engine().job_state().straggler_count(), 0u);
  std::vector<Message> notes;
  for (const Message& m : client.inbox) {
    if (m.type == MsgType::kCompleted || m.type == MsgType::kExpired) {
      notes.push_back(m);
    }
    // Job 0 finished despite the churn.
    if (m.ticket == 0 && m.type == MsgType::kCompleted) {
      EXPECT_EQ(m.a, 30.0);
    }
  }

  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), 41u);
  auto scheduler = make_scheduler("V-Dover", kBandLo, kBandHi);
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  EXPECT_EQ(replay.outcomes[0], sjs::sim::JobOutcome::kCompleted);
  expect_bitwise_equal_results(server.result(), replay);
  expect_notes_match_replay(notes, replayed, replay);
  const std::string replay_dir = fresh_dir("serve_window_doubling_replay");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_dir + "/outcomes.csv");
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_dir + "/outcomes.csv"));
}

TEST(ServeTest, TwoSubmitsAtVirtualZeroReplayByteExactly) {
  // Without a clock advance the second SUBMIT is stamped nextafter(0), the
  // smallest subnormal. Its jobs.csv row must load back bit-exactly, so
  // the journal replays.
  const std::string dir = fresh_dir("serve_subnormal_stamp");
  FakeClock clock;
  AdmissionServer server(scripted_config(dir),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  TestClient client(server.start());
  client.send(submit_msg(1, 0.25, 2.0, 1.0));
  const Message first = client.await_seq(server, 1);
  client.send(submit_msg(2, 0.25, 2.0, 2.0));
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
  client.read_socket();
  ASSERT_TRUE(server.finished());

  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), 2u);
  EXPECT_EQ(replayed.jobs()[1].release, second.a);
  auto scheduler = make_scheduler("V-Dover", kBandLo, kBandHi);
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  EXPECT_EQ(replay.completed_count, 2u);
  expect_bitwise_equal_results(server.result(), replay);
  const std::string replay_dir = fresh_dir("serve_subnormal_stamp_replay");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_dir + "/outcomes.csv");
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_dir + "/outcomes.csv"));
}

TEST(ServeTest, SpilledStragglersCompleteAndExpireAndReplayStaysExact) {
  // Two long jobs pin the base of an 8-slot window while short jobs come
  // and go, so both spill. Job 0 completes; job 1, with more work than its
  // window holds, expires. Each resolves after later jobs retired, so the
  // journal holds those jobs' rows until the stragglers' rows are written,
  // and the streamed outcomes.csv still equals a replay's byte for byte.
  const std::string dir = fresh_dir("serve_stragglers_resolve");
  FakeClock clock;
  ServerConfig config = scripted_config(dir);
  config.max_in_flight = 8;
  config.admission_check = false;  // admits job 1, which cannot finish
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock);
  TestClient client(server.start());

  std::uint64_t seq = 0;
  client.send(submit_msg(++seq, 5.0, 40.0, 30.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  clock.advance(0.1);
  client.send(submit_msg(++seq, 50.0, 30.0, 20.0));
  ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
  std::size_t spilled = 0;
  for (int i = 0; i < 60; ++i) {
    clock.advance(0.3);
    client.send(submit_msg(++seq, 0.05, 0.5, 0.1));
    ASSERT_EQ(client.await_seq(server, seq).type, MsgType::kAccepted);
    const sjs::sim::JobTable& window = server.engine().job_state();
    ASSERT_EQ(window.capacity(), 8u);
    spilled = std::max(spilled, window.straggler_count());
  }
  EXPECT_EQ(spilled, 2u);
  clock.advance(50.0);
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  EXPECT_EQ(client.await_seq(server, seq).type, MsgType::kDraining);
  while (server.step(0)) client.read_socket();
  client.read_socket();
  EXPECT_TRUE(server.journal_error().empty());
  EXPECT_EQ(server.window_slots(), 8u);
  EXPECT_EQ(server.window_stragglers(), 2u);
  EXPECT_GT(server.outcome_rows_held(), 0u);

  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), 62u);
  auto scheduler = make_scheduler("V-Dover", kBandLo, kBandHi);
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  EXPECT_EQ(replay.outcomes[0], sjs::sim::JobOutcome::kCompleted);
  EXPECT_EQ(replay.outcomes[1], sjs::sim::JobOutcome::kExpired);
  expect_bitwise_equal_results(server.result(), replay);
  const std::string replay_dir = fresh_dir("serve_stragglers_resolve_replay");
  std::filesystem::create_directories(replay_dir);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_dir + "/outcomes.csv");
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_dir + "/outcomes.csv"));
}

/// Two long jobs and a stream of short ones through a 4-slot window: the
/// long ones spill. QUERY of a spilled ticket reads the live job, CANCEL of
/// one cancels it, and its ticket then answers like any retired ticket.
/// Short jobs resolve before the next arrives, so at most three jobs are
/// ever in flight and the gate sheds none.
template <typename Server>
void expect_spilled_tickets_answer(Server& server, FakeClock& clock,
                                   int step_ms) {
  TestClient client(server.start());
  std::uint64_t seq = 0;
  const auto submit = [&](double workload, double window) {
    client.send(submit_msg(++seq, workload, window, 1.0));
    const Message r = client.await_seq(server, seq, step_ms);
    EXPECT_EQ(r.type, MsgType::kAccepted);
    return r;
  };
  const auto request = [&](MsgType type, std::uint64_t ticket) {
    Message m;
    m.type = type;
    m.seq = ++seq;
    m.ticket = ticket;
    client.send(m);
    return client.await_seq(server, seq, step_ms);
  };
  const Message first = submit(10.0, 40.0);
  const Message second = submit(10.0, 40.0);
  for (int i = 0; i < 12; ++i) {
    clock.advance(0.6);
    submit(0.05, 0.5);
  }
  Message r = request(MsgType::kQuery, first.ticket);
  EXPECT_EQ(r.type, MsgType::kQueryReply);
  EXPECT_TRUE(r.code == static_cast<std::uint8_t>(JobState::kRunning) ||
              r.code == static_cast<std::uint8_t>(JobState::kQueued))
      << static_cast<int>(r.code);
  EXPECT_GT(r.a, 0.0);
  EXPECT_LE(r.a, 10.0);
  r = request(MsgType::kCancel, second.ticket);
  EXPECT_EQ(r.type, MsgType::kCancelled);
  EXPECT_EQ(r.ticket, second.ticket);
  r = request(MsgType::kQuery, second.ticket);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(JobState::kExpired));
  r = request(MsgType::kCancel, second.ticket);
  EXPECT_EQ(r.type, MsgType::kCancelFailed);
  r = request(MsgType::kQuery, first.ticket);
  EXPECT_NE(r.code, static_cast<std::uint8_t>(JobState::kExpired));
  EXPECT_NE(r.code, static_cast<std::uint8_t>(JobState::kUnknown));

  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = ++seq;
  client.send(drain);
  while (server.step(step_ms)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().shed, 0u);
}

TEST(ServeTest, SpilledTicketsAnswerQueryAndCancel) {
  {
    FakeClock clock;
    ServerConfig config = scripted_config("");
    config.max_in_flight = 4;
    AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                           clock);
    expect_spilled_tickets_answer(server, clock, 0);
    EXPECT_EQ(server.window_stragglers(), 2u);
    EXPECT_EQ(server.window_slots(), 4u);
  }
  {
    // The sharded plane: each shard's window spills its own stragglers.
    FakeClock clock;
    ServerConfig config = scripted_config("");
    config.max_in_flight = 4;
    config.shards = 2;
    config.shard_poll_ms = 5;
    sjs::serve::ShardedAdmissionServer server(
        config, [] { return make_scheduler("V-Dover", kBandLo, kBandHi); },
        clock);
    expect_spilled_tickets_answer(server, clock, 1);
    std::uint64_t stragglers = 0;
    for (std::size_t k = 0; k < server.shard_count(); ++k) {
      EXPECT_EQ(server.shard(k).window_slots(), 4u);
      stragglers += server.shard(k).window_stragglers();
    }
    EXPECT_GE(stragglers, 1u);
  }
}

/// Submits a job that completes and one that is cancelled (its outcome is
/// expired), and lets a later admission retire both; then QUERY and CANCEL
/// must answer for the retired tickets exactly as they did while the jobs
/// were live.
template <typename Server>
void expect_retired_tickets_answer(Server& server, FakeClock& clock,
                                   int step_ms) {
  TestClient client(server.start());
  client.send(submit_msg(1, 0.5, 4.0, 1.0));
  const Message done = client.await_seq(server, 1, step_ms);
  client.send(submit_msg(2, 0.5, 8.0, 1.0));
  const Message cancelled = client.await_seq(server, 2, step_ms);
  ASSERT_EQ(done.type, MsgType::kAccepted);
  ASSERT_EQ(cancelled.type, MsgType::kAccepted);
  clock.advance(0.1);
  server.step(step_ms);
  Message m;
  m.type = MsgType::kCancel;
  m.seq = 3;
  m.ticket = cancelled.ticket;
  client.send(m);
  ASSERT_EQ(client.await_seq(server, 3, step_ms).type, MsgType::kCancelled);
  // Both resolve, and a later admission moves the window past them.
  clock.advance(5.0);
  client.send(submit_msg(4, 0.1, 4.0, 1.0));
  ASSERT_EQ(client.await_seq(server, 4, step_ms).type, MsgType::kAccepted);
  clock.advance(5.0);
  for (int i = 0; i < 20; ++i) {
    server.step(step_ms);
    client.read_socket();
  }

  const auto query = [&](std::uint64_t seq, std::uint64_t ticket) {
    Message q;
    q.type = MsgType::kQuery;
    q.seq = seq;
    q.ticket = ticket;
    client.send(q);
    return client.await_seq(server, seq, step_ms);
  };
  Message r = query(5, done.ticket);
  EXPECT_EQ(r.type, MsgType::kQueryReply);
  EXPECT_EQ(r.ticket, done.ticket);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(JobState::kCompleted));
  EXPECT_EQ(r.a, 0.0);
  r = query(6, cancelled.ticket);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(JobState::kExpired));
  r = query(7, 12345);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(JobState::kUnknown));
  for (std::uint64_t ticket : {done.ticket, cancelled.ticket}) {
    m.seq = 8 + ticket;
    m.ticket = ticket;
    client.send(m);
    const Message reply = client.await_seq(server, m.seq, step_ms);
    EXPECT_EQ(reply.type, MsgType::kCancelFailed);
    EXPECT_EQ(reply.ticket, ticket);
  }
}

TEST(ServeTest, RetiredTicketsAnswerQueryAndCancelAsBefore) {
  {
    FakeClock clock;
    AdmissionServer server(scripted_config(""),
                           make_scheduler("V-Dover", kBandLo, kBandHi), clock);
    expect_retired_tickets_answer(server, clock, 0);
    // The two jobs really left the window.
    EXPECT_GE(server.engine().job_state().base(), 2);
  }
  {
    // The sharded plane: tickets are global, each shard retires its own.
    FakeClock clock;
    ServerConfig config = scripted_config("");
    config.shards = 2;
    config.shard_poll_ms = 5;
    sjs::serve::ShardedAdmissionServer server(
        config, [] { return make_scheduler("V-Dover", kBandLo, kBandHi); },
        clock);
    expect_retired_tickets_answer(server, clock, 1);
  }
}

TEST(ServeTest, MalformedFrameKillsConnectionNotServer) {
  FakeClock clock;
  AdmissionServer server(scripted_config(""),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  const int port = server.start();

  TestClient bad(port);
  bad.send_bytes({0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00});
  const Message err = bad.await(
      server, [](const Message& m) { return m.type == MsgType::kError; });
  EXPECT_EQ(err.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kMalformedFrame));
  // The server hangs up on the offender...
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    server.step(0);
    closed = bad.read_socket();
  }
  EXPECT_TRUE(closed);

  // ...but keeps serving everyone else.
  TestClient good(port);
  good.send(submit_msg(1, 0.5, 5.0, 1.0));
  EXPECT_EQ(good.await_seq(server, 1).type, MsgType::kAccepted);

  // A client sending a server→client type is also cut off.
  TestClient confused(port);
  Message backwards;
  backwards.type = MsgType::kAccepted;
  backwards.seq = 9;
  confused.send(backwards);
  const Message err2 = confused.await(
      server, [](const Message& m) { return m.type == MsgType::kError; });
  EXPECT_EQ(err2.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kNotARequest));
}

TEST(ServeTest, SubmitsDuringDrainAreRefused) {
  FakeClock clock;
  AdmissionServer server(scripted_config(""),
                         make_scheduler("V-Dover", kBandLo, kBandHi), clock);
  TestClient client(server.start());

  // DRAIN and a SUBMIT in the same batch: the submit must see draining.
  Message drain;
  drain.type = MsgType::kDrain;
  drain.seq = 1;
  client.send(drain);
  client.send(submit_msg(2, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1).type, MsgType::kDraining);
  const Message r = client.await_seq(server, 2);
  EXPECT_EQ(r.type, MsgType::kRejected);
  EXPECT_EQ(r.code, static_cast<std::uint8_t>(RejectReason::kDraining));
  while (server.step(0)) client.read_socket();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.result().completed_count, 0u);
}

// ---------------------------------------------------------------------------
// Real clocks and real concurrency: server thread + loadgen thread over
// loopback, then the same replay contract. TSan runs this too.

TEST(ServeTest, RealClockLoadgenSessionReplays) {
  const std::string dir = fresh_dir("serve_loadgen");
  sjs::serve::SystemClock server_clock;
  ServerConfig config = scripted_config(dir);
  config.accel = 20.0;  // compress the virtual session into fractions of a s
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         server_clock);
  const int port = server.start();
  std::thread server_thread([&server] { server.run(); });

  sjs::serve::LoadGenConfig load;
  load.port = port;
  load.duration_s = 0.3;
  load.linger_s = 2.0;
  load.arrival_rate = 200.0;
  load.mean_workload = 0.02;
  load.c_lo = kBandLo;
  load.seed = 99;
  load.send_drain = true;
  sjs::serve::SystemClock client_clock;
  const sjs::serve::LoadReport report =
      sjs::serve::run_load(load, client_clock);
  server_thread.join();

  ASSERT_TRUE(server.finished());
  EXPECT_TRUE(report.drain_acked);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_EQ(report.submitted, report.accepted + report.rejected + report.shed);
  // Drain resolves every admitted job, and the client saw each resolution.
  EXPECT_EQ(report.completed + report.expired, report.accepted);
  EXPECT_EQ(server.result().completed_count, report.completed);
  EXPECT_EQ(server.result().expired_count, report.expired);
  EXPECT_EQ(report.completed_value, server.result().completed_value);

  // Same contract as the FakeClock test, now with wall-clock stamps.
  const sjs::Instance replayed = sjs::load_instance_bundle(dir);
  ASSERT_EQ(replayed.jobs().size(), report.accepted);
  auto scheduler = make_scheduler("V-Dover", replayed.c_lo(), replayed.c_hi());
  sjs::sim::Engine engine(replayed, *scheduler);
  const sjs::sim::SimResult replay = engine.run_to_completion();
  expect_bitwise_equal_results(server.result(), replay);
  // Per job: the streamed outcomes.csv equals the replay's.
  const std::string replay_csv = fresh_dir("serve_loadgen_outcomes");
  std::filesystem::create_directories(replay_csv);
  sjs::sim::save_outcomes_csv(replay, replayed.jobs(),
                              replay_csv + "/outcomes.csv");
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), slurp(replay_csv + "/outcomes.csv"));
}

// ---------------------------------------------------------------------------
// Journal durability: a failed append must surface, not silently drop rows.

/// Caps the process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so a
/// write(2) that crosses the cap comes back short and one that starts at it
/// fails with EFBIG, instead of the kernel killing the process. Restores
/// both on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    SJS_CHECK(::sigaction(SIGXFSZ, &ignore, &old_action_) == 0);
    SJS_CHECK(::getrlimit(RLIMIT_FSIZE, &old_limit_) == 0);
    const rlimit cap{bytes, old_limit_.rlim_max};
    SJS_CHECK(::setrlimit(RLIMIT_FSIZE, &cap) == 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    ::sigaction(SIGXFSZ, &old_action_, nullptr);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  struct sigaction old_action_ {};
  rlimit old_limit_{};
};

/// The two ways a raw journal append fails: the row crosses the file size
/// cap (a short write) or starts at it (EFBIG).
enum class JournalFault { kShortWrite, kFileTooLarge };

/// A file size cap under which the next row appended to the largest of
/// `files` fails as `fault`.
rlim_t fault_cap(const std::vector<std::string>& files, JournalFault fault) {
  std::uintmax_t largest = 0;
  for (const std::string& f : files) {
    largest = std::max(largest, std::filesystem::file_size(f));
  }
  return static_cast<rlim_t>(fault == JournalFault::kShortWrite ? largest + 8
                                                                : largest);
}

/// The text a failure of kind `fault` must carry.
std::string fault_text(JournalFault fault) {
  return fault == JournalFault::kShortWrite ? "short write"
                                            : std::strerror(EFBIG);
}

/// Data rows across `files`; fails the test on a torn (unterminated) row.
std::uint64_t journal_rows(const std::vector<std::string>& files) {
  std::uint64_t rows = 0;
  for (const std::string& f : files) {
    const std::string text = slurp(f);
    EXPECT_FALSE(text.empty()) << f;
    EXPECT_EQ(text.back(), '\n') << "torn row at the end of " << f;
    rows += static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n')) - 1;  // header
  }
  return rows;
}

TEST(JournalTest, AppendFailureThrowsInsteadOfSilentLoss) {
  const std::string dir = fresh_dir("journal_enospc");
  sjs::serve::Journal journal(dir, sjs::cap::CapacityProfile(1.0), kBandLo,
                              kBandHi, {"V-Dover", 1.0, true});
  const std::string jobs = dir + "/jobs.csv";
  sjs::Job job;
  job.id = 0;
  job.release = 0.25;
  job.workload = 1.0;
  job.deadline = 4.0;
  job.value = 2.0;
  journal.record_admit(job);
  const std::uintmax_t healthy = std::filesystem::file_size(jobs);

  job.id = 1;
  for (const JournalFault fault :
       {JournalFault::kShortWrite, JournalFault::kFileTooLarge}) {
    std::string what;
    {
      const FileSizeCap cap(fault_cap({jobs}, fault));
      try {
        journal.record_admit(job);
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
    }
    ASSERT_FALSE(what.empty()) << "journal swallowed a failed append";
    EXPECT_NE(what.find("journal append failed"), std::string::npos) << what;
    EXPECT_NE(what.find(fault_text(fault)), std::string::npos) << what;
    // A short write's torn row is cut off again: whole rows only.
    EXPECT_EQ(std::filesystem::file_size(jobs), healthy);
  }
  EXPECT_EQ(journal.admit_count(), 1u);
  EXPECT_EQ(journal_rows({jobs}), 1u);
}

/// Drives `server` (any mode) into a journal append failure of kind `fault`
/// and checks the one journal-failure policy: the client sees
/// ERROR(kJournalFailed), never an ACCEPTED whose row was dropped (the
/// `journals` hold exactly the accepted rows, all whole); journal_error()
/// names the failure; the session drains on its own (no DRAIN frame); the
/// drain completes; and nothing of the failed SUBMIT was admitted: no
/// COMPLETED/EXPIRED reaches its seq, and the in-flight count ends at 0.
template <typename Server>
void expect_journal_failure_fails_session_cleanly(
    Server& server, FakeClock& clock, int step_ms,
    const std::vector<std::string>& journals, JournalFault fault) {
  TestClient client(server.start());

  // One healthy admission first: the failure path must not corrupt it.
  client.send(submit_msg(1, 0.5, 5.0, 1.0));
  EXPECT_EQ(client.await_seq(server, 1, step_ms).type, MsgType::kAccepted);
  std::uint64_t accepted = 1;

  // Submit until an append fails. The client must see ERROR(kJournalFailed),
  // never an ACCEPTED whose journal row was silently dropped.
  std::uint64_t seq = 1;
  Message failed{};
  {
    const FileSizeCap cap(fault_cap(journals, fault));
    for (int i = 0; i < 64; ++i) {
      clock.advance(0.01);
      client.send(submit_msg(++seq, 0.5, 5.0, 1.0));
      const Message r = client.await_seq(server, seq, step_ms);
      if (r.type == MsgType::kError) {
        failed = r;
        break;
      }
      ASSERT_EQ(r.type, MsgType::kAccepted);
      ++accepted;
    }
  }

  ASSERT_EQ(failed.type, MsgType::kError);
  EXPECT_EQ(failed.code,
            static_cast<std::uint8_t>(sjs::serve::ErrorCode::kJournalFailed));
  EXPECT_FALSE(server.journal_error().empty());
  // The failure initiated a drain on its own — no DRAIN frame was sent.
  // (ASSERT: a session that keeps serving would never finish the loop.)
  ASSERT_TRUE(server.draining());
  while (server.step(step_ms)) client.read_socket();
  EXPECT_TRUE(server.finished());
  // The failure's own text: the short count or strerror. The plane keeps
  // each shard's message on the shard.
  std::string why = server.journal_error();
  if constexpr (std::is_same_v<Server, sjs::serve::ShardedAdmissionServer>) {
    for (std::size_t k = 0; k < journals.size(); ++k) {
      why += " | " + server.shard(k).journal_error();
    }
  }
  EXPECT_NE(why.find(fault_text(fault)), std::string::npos) << why;
  EXPECT_EQ(journal_rows(journals), accepted);

  client.read_socket();
  std::uint64_t notified = 0;
  for (const Message& m : client.inbox) {
    if (m.type != MsgType::kCompleted && m.type != MsgType::kExpired) continue;
    ++notified;
    EXPECT_NE(m.seq, failed.seq) << "the failed SUBMIT was notified";
  }
  EXPECT_EQ(notified, accepted);
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServeTest, JournalFailureFailsSessionCleanly) {
  for (const JournalFault fault :
       {JournalFault::kShortWrite, JournalFault::kFileTooLarge}) {
    SCOPED_TRACE(fault_text(fault));
    {
      SCOPED_TRACE("single");
      FakeClock clock;
      const std::string dir = fresh_dir("serve_journal_fail");
      AdmissionServer server(scripted_config(dir),
                             make_scheduler("V-Dover", kBandLo, kBandHi),
                             clock);
      expect_journal_failure_fails_session_cleanly(
          server, clock, 0, {dir + "/jobs.csv"}, fault);
    }
    {
      SCOPED_TRACE("--shards=2");
      FakeClock clock;
      const std::string dir = fresh_dir("sharded_journal_fail");
      ServerConfig config = scripted_config(dir);
      config.shards = 2;
      config.shard_poll_ms = 5;
      sjs::serve::ShardedAdmissionServer server(
          config, [] { return make_scheduler("V-Dover", kBandLo, kBandHi); },
          clock);
      expect_journal_failure_fails_session_cleanly(
          server, clock, 1,
          {dir + "/shard0/jobs.csv", dir + "/shard1/jobs.csv"}, fault);
    }
    {
      SCOPED_TRACE("--cluster=4");
      FakeClock clock;
      sjs::cluster::ClusterServerConfig config;
      config.fleet = sjs::cluster::Fleet::heterogeneous(4);
      config.journal_dir = fresh_dir("cluster_journal_fail");
      sjs::cluster::ClusterServer server(config, clock);
      expect_journal_failure_fails_session_cleanly(
          server, clock, 0, {config.journal_dir + "/jobs.csv"}, fault);
    }
  }
}

// ---------------------------------------------------------------------------
// Session wait: the loop sleeps until the next engine event is due, to the
// microsecond.

class DiscardTarget final : public sjs::serve::ReplyTarget {
 public:
  void send(int /*conn*/, std::uint64_t /*gen*/, const Message& m) override {
    last = m;
  }
  Message last;
};

TEST(SessionWait, MicrosecondsUntilTheNextEventUnderFakeClock) {
  FakeClock clock;
  DiscardTarget target;
  sjs::serve::Session<sjs::serve::LocalBackend> session(
      scripted_config(""), clock, target, "",
      make_scheduler("V-Dover", kBandLo, kBandHi));
  session.begin_live(clock.now(), nullptr);

  // Nothing queued: the cap itself, -1 ("until activity") included.
  EXPECT_EQ(session.wait_us(50000), 50000);
  EXPECT_EQ(session.wait_us(0), 0);
  EXPECT_EQ(session.wait_us(-1), -1);

  // A job of 0.4 ms of work on the unit path, released at 0: once the pump
  // at 0.1 ms has started it, its completion is due 0.3 ms of wall time
  // ahead (accel 1).
  session.submit(0, 0, submit_msg(1, 0.0004, 0.01, 1.0));
  ASSERT_EQ(target.last.type, MsgType::kAccepted);
  clock.advance(0.0001);
  session.pump();
  EXPECT_NEAR(static_cast<double>(session.wait_us(50000)), 300.0, 1.0);
  // Not rounded up to a whole millisecond, and a negative cap is no cap:
  // the loop must not sleep past the completion until a socket fires.
  EXPECT_NEAR(static_cast<double>(session.wait_us(-1)), 300.0, 1.0);
  // A shorter cap still wins.
  EXPECT_EQ(session.wait_us(100), 100);

  // Due (or overdue): no wait at all.
  clock.set(0.0004);
  EXPECT_EQ(session.wait_us(50000), 0);
  EXPECT_EQ(session.wait_us(-1), 0);
  clock.advance(0.001);
  EXPECT_EQ(session.wait_us(-1), 0);
  session.pump();
  EXPECT_EQ(target.last.type, MsgType::kCompleted);
}

/// A V-Dover session under FakeClock with its metrics on `registry`.
struct WaitSession {
  explicit WaitSession(sjs::obs::MetricsRegistry* registry = nullptr)
      : session(scripted_config(""), clock, target, "",
                make_scheduler("V-Dover", kBandLo, kBandHi)) {
    session.begin_live(clock.now(), registry);
  }
  const sjs::sim::Engine& engine() const { return session.backend().engine(); }
  /// Wall µs from now until virtual time `t` (accel 1), rounded up.
  double lead_us(double t) { return (t - clock.now()) * 1e6; }

  FakeClock clock;
  DiscardTarget target;
  sjs::serve::Session<sjs::serve::LocalBackend> session;
};

TEST(SessionWait, ACompletedJobsExpiryNoLongerBoundsTheWait) {
  WaitSession w;
  // A: 0.4 ms of work, done at 0.4 ms; its expiry at 10 ms stays queued.
  w.session.submit(0, 0, submit_msg(1, 0.0004, 0.01, 1.0));
  w.clock.advance(0.0001);
  w.session.pump();
  w.clock.set(0.001);
  w.session.pump();
  ASSERT_EQ(w.target.last.type, MsgType::kCompleted);
  // B: admitted at 1 ms, 20 ms of work: its completion at 21 ms is the
  // first live event, behind A's dead expiry.
  w.session.submit(0, 0, submit_msg(2, 0.02, 0.05, 1.0));
  w.clock.set(0.0011);
  w.session.pump();
  EXPECT_DOUBLE_EQ(w.engine().next_event_time(), 0.01);
  EXPECT_DOUBLE_EQ(w.engine().next_live_event_time(), 0.021);
  EXPECT_NEAR(static_cast<double>(w.session.wait_us(-1)), w.lead_us(0.021),
              1.0);
}

TEST(SessionWait, AStaleCompletionNoLongerBoundsTheWait) {
  WaitSession w;
  // A (5 ms of work, far deadline) runs from 0; B (1 ms, deadline 4 ms)
  // arrives at 1 ms and preempts it, so A's completion at 5 ms goes stale.
  w.session.submit(0, 0, submit_msg(1, 0.005, 0.5, 1.0));
  w.clock.advance(0.0001);
  w.session.pump();
  w.clock.set(0.001);
  w.session.submit(0, 0, submit_msg(2, 0.001, 0.003, 1.0));
  w.clock.set(0.0011);
  w.session.pump();
  ASSERT_EQ(w.engine().running(), 1);
  // B completes at 2 ms and A resumes, due at 6 ms; at 4.5 ms B's expiry
  // has popped and A's stale completion at 5 ms is the raw front.
  w.clock.set(0.0045);
  w.session.pump();
  ASSERT_EQ(w.engine().running(), 0);
  EXPECT_DOUBLE_EQ(w.engine().next_event_time(), 0.005);
  EXPECT_NEAR(w.engine().next_live_event_time(), 0.006, 1e-12);
  EXPECT_NEAR(static_cast<double>(w.session.wait_us(-1)), w.lead_us(0.006),
              1.0);
  // The stale completion still pops, in order, inside the next pump.
  w.clock.set(0.0061);
  w.session.pump();
  EXPECT_EQ(w.target.last.type, MsgType::kCompleted);
  EXPECT_EQ(w.target.last.ticket, 0u);
}

TEST(SessionWait, ALiveVDoverTimerStillBoundsTheWait) {
  WaitSession w;
  // A (4 ms of work, deadline 8.1 ms) runs; B (3 ms, deadline 8.5 ms,
  // later than A's) goes to Qother with a zero-laxity timer at
  // 8.5 − 3 / c_lo = 2.5 ms, before A's completion at 4 ms. The timer can
  // change the schedule, so the loop must wake for it.
  w.session.submit(0, 0, submit_msg(1, 0.004, 0.0081, 1.0));
  w.session.submit(0, 0, submit_msg(2, 0.003, 0.0085, 1.0));
  w.clock.advance(0.0001);
  w.session.pump();
  ASSERT_EQ(w.engine().live_timer_count(), 1u);
  EXPECT_NEAR(w.engine().next_event_time(), 0.0025, 1e-12);
  EXPECT_EQ(w.engine().next_live_event_time(),
            w.engine().next_event_time());
  EXPECT_NEAR(static_cast<double>(w.session.wait_us(-1)), w.lead_us(0.0025),
              1.0);
}

TEST(SessionWait, AFleetStaleCompletionLeftByAMigrationIsSkipped) {
  FakeClock clock;
  DiscardTarget target;
  sjs::obs::MetricsRegistry registry;
  sjs::cluster::ClusterServerConfig config;
  config.fleet = sjs::cluster::Fleet::heterogeneous(2);  // large, standard
  config.rental = "static";
  sjs::serve::Session<sjs::cluster::FleetBackend> session(config, clock,
                                                          target, "");
  session.begin_live(clock.now(), &registry);
  const sjs::cloud::MultiEngine& engine = session.backend().engine();
  // A (far deadline) takes the fast machine; B (earlier deadline, more
  // work) arrives later, takes it over, and A migrates to the slow one:
  // A's completion on the fast machine is stale.
  // The serving paths run at 70 (large) and 35 (standard): A is due on
  // the fast machine at 5.7 ms, and after its migration at 1 ms on the
  // slow one at 10.4 ms; B is due at 15.3 ms.
  session.submit(0, 0, submit_msg(1, 0.4, 10.0, 1.0));
  clock.advance(0.0001);
  session.pump();
  ASSERT_EQ(engine.server_of(0), 0u);
  clock.set(0.001);
  session.submit(0, 0, submit_msg(2, 1.0, 1.0, 1.0));
  clock.set(0.0011);
  session.pump();
  ASSERT_EQ(engine.server_of(1), 0u);
  ASSERT_EQ(engine.server_of(0), 1u);
  const double front = engine.next_event_time();
  const double live = engine.next_live_event_time();
  EXPECT_LT(front, live);
  EXPECT_NEAR(static_cast<double>(session.wait_us(-1)),
              (live - clock.now()) * 1e6, 1.0);
  // Sleeping through the stale completion skips nothing: A completes on
  // the slow machine once its live completion is due.
  clock.set(live + 1e-6);
  session.pump();
  EXPECT_EQ(target.last.type, MsgType::kCompleted);
  EXPECT_EQ(target.last.ticket, 0u);
}

TEST(SessionWakeups, CountsSocketTimerAndEmptyTimerWakes) {
  // The wake-up accounting of docs/observability.md, on the Session the
  // loops share: a wait that slept and ended with descriptors ready is a
  // socket wake; one that ran out is a timer wake, and also timer_empty
  // when the pump after it shipped no notification; a zero wait is no
  // wake at all.
  FakeClock clock;
  DiscardTarget target;
  sjs::obs::MetricsRegistry registry;
  sjs::serve::Session<sjs::serve::LocalBackend> session(
      scripted_config(""), clock, target, "",
      make_scheduler("V-Dover", kBandLo, kBandHi));
  session.begin_live(clock.now(), &registry);
  const auto counter = [&](std::string_view name) {
    const auto counters = registry.snapshot().counters;
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0.0 : it->second;
  };

  session.count_wakeup(0, 0, session.notified());
  EXPECT_EQ(counter(sjs::serve::kCtrWakeSocket), 0.0);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimer), 0.0);

  session.count_wakeup(500, 1, session.notified());
  EXPECT_EQ(counter(sjs::serve::kCtrWakeSocket), 1.0);

  // A timer wake that delivers the completion it slept for.
  session.submit(0, 0, submit_msg(1, 0.0004, 0.01, 1.0));
  clock.advance(0.0001);
  session.pump();
  const std::int64_t wait = session.wait_us(-1);
  ASSERT_GT(wait, 0);
  clock.advance(0.001);
  std::uint64_t before = session.notified();
  session.pump();
  session.count_wakeup(wait, 0, before);
  EXPECT_EQ(target.last.type, MsgType::kCompleted);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimer), 1.0);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimerEmpty), 0.0);

  // The job's expiry is still queued, dead: it no longer ends the wait (an
  // uncapped one waits for activity), and a capped wait that runs out ships
  // nothing.
  EXPECT_EQ(session.wait_us(-1), -1);
  const std::int64_t dead_wait = session.wait_us(2000);
  ASSERT_EQ(dead_wait, 2000);
  clock.advance(0.01);
  before = session.notified();
  session.pump();
  session.count_wakeup(dead_wait, 0, before);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimer), 2.0);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimerEmpty), 1.0);
}

TEST(SessionWakeups, InlineServerCountsItsLoopWakes) {
  // The same counters from AdmissionServer's own loop under FakeClock: a
  // SUBMIT wakes it on the socket; with the clock frozen, the wait for the
  // job's completion runs out and the pump after it finds nothing due.
  FakeClock clock;
  sjs::obs::MetricsRegistry registry;
  ServerConfig config = scripted_config("");
  config.accel = 1000.0;  // the job's 0.5 virtual s is 0.5 ms of wall time
  AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                         clock, &registry);
  TestClient client(server.start());
  client.send(submit_msg(1, 0.5, 4.0, 1.0));
  ASSERT_EQ(client.await_seq(server, 1, 50).type, MsgType::kAccepted);
  // The pump releases the job; the loop then sleeps until its completion
  // is due, and times out.
  clock.advance(0.001);
  server.step(50);
  const auto counters = registry.snapshot().counters;
  EXPECT_GE(counters.at(std::string(sjs::serve::kCtrWakeSocket)), 1.0);
  EXPECT_GE(counters.at(std::string(sjs::serve::kCtrWakeTimer)), 1.0);
  EXPECT_GE(counters.at(std::string(sjs::serve::kCtrWakeTimerEmpty)), 1.0);
}

TEST(SessionWakeups, CompletedJobsExpiriesNoLongerWakeTheLoop) {
  // Pairs of jobs that all complete: A runs at once; B waits in Qother
  // behind a V-Dover zero-laxity timer, which finds it not valuable enough
  // and leaves it to the supplement queue, where it runs after A. Stepped
  // wait by wait, the loop wakes for the two completions and the timer;
  // the expiries, dead by the time they are due, never end a wait. So the
  // timer wakes that ship nothing are exactly the live timers that fired.
  sjs::obs::MetricsRegistry registry;
  WaitSession w(&registry);
  constexpr int kPairs = 5;
  std::uint64_t seq = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    w.clock.set(0.02 * pair);
    w.session.submit(0, 0, submit_msg(++seq, 0.004, 0.0081, 1.0));
    w.session.submit(0, 0, submit_msg(++seq, 0.003, 0.0085, 1.0));
    w.session.pump();
    for (int turn = 0; turn < 50; ++turn) {
      const std::int64_t wait = w.session.wait_us(-1);
      if (wait < 0) break;  // only dead expiries left: wait for activity
      w.clock.advance(static_cast<double>(wait + 1) * 1e-6);
      const std::uint64_t before = w.session.notified();
      w.session.pump();
      w.session.count_wakeup(wait, 0, before);
    }
  }
  const auto counters = registry.snapshot().counters;
  const auto counter = [&](std::string_view name) {
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0.0 : it->second;
  };
  EXPECT_EQ(counter(sjs::serve::kCtrCompleted), 2.0 * kPairs);
  EXPECT_EQ(counter("trace.timer"), 1.0 * kPairs);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimer), 3.0 * kPairs);
  EXPECT_EQ(counter(sjs::serve::kCtrWakeTimerEmpty), counter("trace.timer"));
  // Each pair's last wait found only the two dead expiries and waited for
  // activity instead.
  EXPECT_GE(counter(sjs::serve::kCtrWakeDeadSkipped), 1.0 * kPairs);
}

// ---------------------------------------------------------------------------
// Timer slack: every serving thread, and only a serving thread, runs with
// the documented slack.

/// A system clock that records, per calling thread, the timer slack the
/// thread had at each read. Serving threads read the clock on every pump.
class SlackRecordingClock final : public sjs::serve::Clock {
 public:
  double now() override {
    const auto slack = static_cast<unsigned long>(
        ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
    {
      std::lock_guard<std::mutex> lock(mu_);
      slacks_[std::this_thread::get_id()].insert(slack);
    }
    return inner_.now();
  }
  std::map<std::thread::id, std::set<unsigned long>> slacks() {
    std::lock_guard<std::mutex> lock(mu_);
    return slacks_;
  }

 private:
  sjs::serve::SystemClock inner_;
  std::mutex mu_;
  std::map<std::thread::id, std::set<unsigned long>> slacks_;
};

/// What a served session saw of timer slack: the slack the thread that
/// ran the front end had when run() returned, and per thread the slacks
/// the clock was read with.
struct SlackSeen {
  unsigned long front_end = 0;
  std::map<std::thread::id, std::set<unsigned long>> clock_reads;
};

/// Serves a short real-clock load on a thread of its own; the load runs on
/// this thread.
template <typename Server>
SlackSeen serve_and_record_slack(Server& server, SlackRecordingClock& clock) {
  SlackSeen seen;
  const int port = server.start();
  std::thread serving([&server, &seen] {
    server.run();
    seen.front_end =
        static_cast<unsigned long>(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
  });
  sjs::serve::LoadGenConfig load;
  load.port = port;
  load.duration_s = 0.1;
  load.linger_s = 0.3;
  load.arrival_rate = 200.0;
  load.mean_workload = 0.02;
  load.c_lo = kBandLo;
  load.seed = 5;
  load.send_drain = true;
  sjs::serve::SystemClock client_clock;
  const sjs::serve::LoadReport report =
      sjs::serve::run_load(load, client_clock);
  serving.join();
  EXPECT_TRUE(server.finished());
  EXPECT_GT(report.accepted, 0u);
  seen.clock_reads = clock.slacks();
  return seen;
}

TEST(ServingTimerSlack, EveryServingThreadRunsWithTheDocumentedSlack) {
  const auto own_slack = [] {
    return static_cast<unsigned long>(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
  };
  // A sentinel slack on this thread: an earlier test in this process may
  // have stepped a server here, and every thread this one spawns starts
  // from it, so only an explicit set can give them the serving value.
  const unsigned long inherited = own_slack();
  const unsigned long before = sjs::serve::kServingTimerSlackNs + 12345;
  ASSERT_EQ(::prctl(PR_SET_TIMERSLACK, before, 0, 0, 0), 0);
  // The front end's thread, and every other thread that read the clock (a
  // shard pumps its session on every turn; the sharded acceptor may read
  // none), ran with the serving slack.
  const auto expect_serving = [&](const SlackSeen& slack,
                                  std::size_t clock_threads) {
    EXPECT_EQ(slack.front_end, sjs::serve::kServingTimerSlackNs);
    std::size_t seen = 0;
    for (const auto& [thread, values] : slack.clock_reads) {
      if (thread == std::this_thread::get_id()) {
        // start() ran here: this thread read the clock, unchanged.
        EXPECT_EQ(values, std::set<unsigned long>{before});
        continue;
      }
      ++seen;
      EXPECT_EQ(values,
                std::set<unsigned long>{sjs::serve::kServingTimerSlackNs});
    }
    EXPECT_GE(seen, clock_threads);
  };
  ServerConfig config = scripted_config("");
  config.accel = 20.0;
  {
    SCOPED_TRACE("inline");
    SlackRecordingClock clock;
    AdmissionServer server(config, make_scheduler("V-Dover", kBandLo, kBandHi),
                           clock);
    expect_serving(serve_and_record_slack(server, clock), 1);
  }
  {
    SCOPED_TRACE("--shards=2: the acceptor and each shard thread");
    SlackRecordingClock clock;
    ServerConfig sharded = config;
    sharded.shards = 2;
    sharded.shard_poll_ms = 5;
    sjs::serve::ShardedAdmissionServer server(
        sharded, [] { return make_scheduler("V-Dover", kBandLo, kBandHi); },
        clock);
    expect_serving(serve_and_record_slack(server, clock), 2);
  }
  {
    SCOPED_TRACE("--cluster=4");
    SlackRecordingClock clock;
    sjs::cluster::ClusterServerConfig cluster;
    cluster.accel = 20.0;
    sjs::cluster::ClusterServer server(cluster, clock);
    expect_serving(serve_and_record_slack(server, clock), 1);
  }
  // The test's own thread kept its slack throughout.
  EXPECT_EQ(own_slack(), before);
  ::prctl(PR_SET_TIMERSLACK, inherited, 0, 0, 0);
}

// ---------------------------------------------------------------------------
// Pooled latency merge: quantiles come from the union of samples, never from
// averaging per-connection summaries.

// ---------------------------------------------------------------------------
// Notification lag: the client recovers the server's clock from the ACCEPTED
// stamps alone.

/// A synthetic session against a server whose clock reads
/// virtual = (wall − 100)·20: `n` ACCEPTEDs 5 ms apart whose request and
/// reply each spend `base` plus up to `jitter` seconds in transit, and one
/// COMPLETED per ACCEPTED that arrives a known lag after the server's clock
/// reached its completion instant.
struct SyntheticSession {
  std::vector<sjs::serve::AcceptStamp> accepted;
  std::vector<sjs::serve::CompletionStamp> completions;
  std::vector<double> lags;
};

SyntheticSession synthetic_session(int n, double base, double jitter) {
  constexpr double kEpoch = 100.0;
  constexpr double kAccel = 20.0;
  sjs::Rng rng(77);
  SyntheticSession out;
  for (int i = 0; i < n; ++i) {
    const double sent = kEpoch + 0.01 + 0.005 * i;
    const double stamped = sent + base + rng.uniform(0.0, jitter);
    const double received = stamped + base + rng.uniform(0.0, jitter);
    out.accepted.push_back({sent, received, (stamped - kEpoch) * kAccel});
    const double done = stamped + rng.uniform(0.001, 0.05);
    const double lag = rng.uniform(5e-6, 500e-6);
    out.completions.push_back({done + lag, (done - kEpoch) * kAccel});
    out.lags.push_back(lag);
  }
  return out;
}

TEST(LoadGen, NotificationLagRecoversTheServerClockFromAcceptedStamps) {
  {
    // Symmetric, jitter-free transit: accel is exact and the epoch is late
    // by exactly one reply delay, so every lag reads that much low.
    const SyntheticSession s = synthetic_session(400, 30e-6, 0.0);
    const std::vector<double> lags =
        sjs::serve::notification_lags(s.accepted, s.completions);
    ASSERT_EQ(lags.size(), s.lags.size());
    for (std::size_t i = 0; i < lags.size(); ++i) {
      EXPECT_NEAR(lags[i], s.lags[i] - 30e-6, 1e-9) << i;
    }
  }
  {
    // Up to 200 µs of jitter each way: the bias stays within a few tens of
    // microseconds, far below the millisecond the lag is meant to resolve.
    const SyntheticSession s = synthetic_session(400, 10e-6, 200e-6);
    const std::vector<double> lags =
        sjs::serve::notification_lags(s.accepted, s.completions);
    ASSERT_EQ(lags.size(), s.lags.size());
    for (std::size_t i = 0; i < lags.size(); ++i) {
      EXPECT_NEAR(lags[i], s.lags[i], 40e-6) << i;
    }
    EXPECT_NEAR(sjs::summarize(lags).median, sjs::summarize(s.lags).median,
                20e-6);
  }
  // Too little to estimate a clock from: no lags rather than made-up ones.
  const SyntheticSession s = synthetic_session(1, 10e-6, 0.0);
  EXPECT_TRUE(sjs::serve::notification_lags(s.accepted, s.completions).empty());
  std::vector<sjs::serve::AcceptStamp> same_stamp = {{1.0, 1.1, 5.0},
                                                     {2.0, 2.1, 5.0}};
  EXPECT_TRUE(sjs::serve::notification_lags(same_stamp, s.completions).empty());
}

TEST(LoadGen, MergedLatencyPoolsSamplesAcrossConnections) {
  // Two heavily skewed connections: one fast (1ms-ish), one slow (100ms-ish)
  // with the same sample count. Averaging the per-connection p99s would
  // report ~50ms; the pooled tail must sit in the slow group.
  std::vector<double> fast;
  std::vector<double> slow;
  for (int i = 0; i < 99; ++i) {
    fast.push_back(1e-3 + static_cast<double>(i) * 1e-6);
    slow.push_back(0.1 + static_cast<double>(i) * 1e-4);
  }
  const sjs::Summary fast_sum = sjs::summarize(fast);
  const sjs::Summary slow_sum = sjs::summarize(slow);
  const sjs::Summary merged =
      sjs::serve::merge_latency_samples({fast, slow});

  EXPECT_EQ(merged.count, fast.size() + slow.size());
  EXPECT_EQ(merged.min, fast.front());
  EXPECT_EQ(merged.max, slow.back());
  // Pooled p99 ≈ the slow group's tail, far above the average of the two
  // per-connection p99s.
  EXPECT_GT(merged.p99, 0.1);
  EXPECT_GT(merged.p99, 1.5 * 0.5 * (fast_sum.p99 + slow_sum.p99));
  // p50 of the pool straddles the groups; each group's own median does not.
  EXPECT_GT(merged.median, fast_sum.median);
  EXPECT_LT(merged.median, slow_sum.median);

  // Degenerate shapes stay well-defined.
  EXPECT_EQ(sjs::serve::merge_latency_samples({}).count, 0u);
  EXPECT_EQ(sjs::serve::merge_latency_samples({{}, {2.5}}).count, 1u);
}

}  // namespace
