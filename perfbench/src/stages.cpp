// pb_probe stages — the per-stage replay of one serving session.
//
// The admitted stream a session journalled is fed back through each stage
// of the request path, one call per job, each call wrapped in a span:
//
//   codec    FrameDecoder::feed + next on the SUBMIT frame, encode_frame_into
//            on the ACCEPTED reply
//   gate     AdmissionGate::evaluate at the journalled admission stamp (the
//            journal keeps no wall-derived virtual instant, so the gate's
//            stamps are not checked against the session's)
//   journal  Journal::record_admit and ClusterJournal::record_admit (both
//            write and flush one row, into a scratch directory)
//   sim      sim::Engine live mode (advance_to the stamp, admit_live) under
//            V-Dover behind a TimedScheduler
//   cloud    cloud::MultiEngine live mode under a cluster::Dispatcher behind
//            a TimedGlobalScheduler
//   conc     a conc::Channel round trip acceptor -> shard -> acceptor with
//            WakeFd wakeups, one message per job, plus a burst that counts
//            kFull refusals
//
// Self-checks: the live replay whose engine matches the session's mode must
// reproduce the session's outcomes.csv byte for byte with the decorator in
// place, and a batch replay of the stream must give the same replay digest
// with and without the decorator.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cluster/cluster_journal.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "cluster/rental.hpp"
#include "conc/channel.hpp"
#include "jobs/bundle.hpp"
#include "obs/digest.hpp"
#include "probes.hpp"
#include "sched/factory.hpp"
#include "serve/admission.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_worker.hpp"
#include "sim/engine.hpp"
#include "timing.hpp"
#include "util/cli.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;
using sjs::Job;
using sjs::JobId;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

/// The single-server configuration a fleet session's jobs are replayed
/// against: a constant rate-2 server with declared band [1, 2] (the band
/// the benchmark's single-engine sessions serve with).
constexpr double kBandLo = 1.0;
constexpr double kBandHi = 2.0;

void codec_and_gate(const std::vector<Job>& jobs, double c_lo, SpanLog& log,
                    JsonOut& out) {
  sjs::serve::FrameDecoder decoder;
  sjs::serve::AdmissionGate gate(c_lo, true, ~0ULL);
  std::uint8_t frame[sjs::serve::kMaxFrame];
  std::uint64_t checksum = 0;
  double engine_now = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    sjs::serve::Message m;
    m.type = sjs::serve::MsgType::kSubmit;
    m.seq = i + 1;
    m.a = job.workload;
    m.b = job.deadline - job.release;
    m.c = job.value;
    const std::size_t n = sjs::serve::encode_frame_into(frame, m);
    sjs::serve::Message got;
    {
      Scope s(log, SpanName::kDecode, i);
      decoder.feed(frame, n);
      decoder.next(got);
    }
    sjs::serve::AdmissionGate::Decision verdict;
    {
      Scope s(log, SpanName::kGate, i);
      verdict = gate.evaluate(got.a, got.b, got.c, job.release, engine_now,
                              false, 0);
    }
    engine_now = job.release;
    sjs::serve::Message reply;
    reply.type = sjs::serve::MsgType::kAccepted;
    reply.seq = got.seq;
    reply.ticket = i;
    reply.a = verdict.job.release;
    std::size_t written = 0;
    {
      Scope s(log, SpanName::kEncode, i);
      written = sjs::serve::encode_frame_into(frame, reply);
    }
    checksum += frame[written - 1];
  }
  out.num("codec_checksum", static_cast<double>(checksum));
}

void journals(const std::vector<Job>& jobs, const std::string& scratch,
              SpanLog& log) {
  sjs::serve::Journal::Meta meta;
  meta.scheduler = "V-Dover";
  sjs::serve::Journal journal(scratch + "/stage_journal",
                              sjs::cap::CapacityProfile(kBandHi), kBandLo,
                              kBandHi, meta);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Scope s(log, SpanName::kJournal, i);
    journal.record_admit(jobs[i]);
  }
  journal.close();
  const sjs::cluster::Fleet fleet = sjs::cluster::Fleet::heterogeneous(4);
  sjs::cluster::ClusterJournal::Meta cmeta;
  cmeta.scheduler = "Cluster-EDF/threshold";
  cmeta.rental = "threshold";
  sjs::cluster::ClusterJournal cjournal(scratch + "/stage_cluster_journal",
                                        fleet, fleet.constant_paths(), cmeta);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Scope s(log, SpanName::kClusterJournal, i);
    cjournal.record_admit(jobs[i]);
  }
  cjournal.close();
}

/// sim::Engine live replay; returns the outcomes.csv bytes it produces.
std::string sim_live(const std::vector<Job>& jobs,
                     const sjs::cap::CapacityProfile& capacity, double c_lo,
                     double c_hi, const std::string& scratch, SpanLog& log,
                     JsonOut& out) {
  const auto lineup = sjs::sched::full_lineup(c_lo, c_hi);
  TimedScheduler sched(sjs::sched::find_factory(lineup, "V-Dover")->make(), log);
  sjs::Instance live(std::vector<Job>{}, capacity, c_lo, c_hi);
  live.reserve_jobs(jobs.size());
  sjs::sim::Engine engine(live, sched);
  engine.reserve_live(jobs.size());
  engine.begin_live();
  for (const Job& job : jobs) {
    {
      Scope s(log, SpanName::kAdvance);
      engine.advance_to(std::max(job.release, engine.now()));
    }
    Job copy = job;
    const JobId id = live.append_job(copy);
    Scope s(log, SpanName::kAdmitLive, static_cast<std::uint64_t>(id));
    engine.admit_live(id);
  }
  const sjs::sim::SimResult result = engine.finish_live();
  const double n = static_cast<double>(jobs.size());
  const SpanAgg& adv = log.agg(SpanName::kAdvance);
  out.num("sim.admit_live_ns",
          per(static_cast<double>(log.agg(SpanName::kAdmitLive).self_ns),
              static_cast<double>(log.agg(SpanName::kAdmitLive).count)));
  out.num("sim.advance_us", per(static_cast<double>(adv.self_ns) / 1e3,
                                static_cast<double>(adv.count)));
  out.num("sim.events_per_advance",
          per(static_cast<double>(result.events_processed),
              static_cast<double>(adv.count)));
  std::uint64_t hooks = 0;
  for (SpanName h : {SpanName::kSchedRelease, SpanName::kSchedComplete,
                     SpanName::kSchedExpire, SpanName::kSchedTimer,
                     SpanName::kSchedCapacity}) {
    hooks += log.agg(h).count;
  }
  out.num("sched.hooks_per_job", per(static_cast<double>(hooks), n));
  out.num("sched.preemptions_per_job",
          per(static_cast<double>(result.preemptions), n));
  out.num("sched.queue_peak", static_cast<double>(result.queue_peak));
  out.num("sim.live_value_captured", result.value_fraction());
  const std::string path = scratch + "/stage_outcomes.csv";
  sjs::sim::save_outcomes_csv(result, live.jobs(), path);
  return read_file(path);
}

/// cloud::MultiEngine live replay under the fleet dispatcher; returns the
/// outcomes.csv bytes it produces.
std::string cloud_live(const std::vector<Job>& jobs,
                       const sjs::cluster::Fleet& fleet,
                       const sjs::cluster::DispatcherConfig& dc,
                       const std::string& rental, const std::string& scratch,
                       SpanLog& log, JsonOut& out) {
  sjs::cluster::Dispatcher dispatcher(fleet, dc,
                                      sjs::cluster::make_rental_controller(rental));
  TimedGlobalScheduler timed(dispatcher, log);
  std::vector<Job> live;
  live.reserve(jobs.size());
  sjs::cloud::MultiEngine engine(live, fleet.constant_paths(), timed);
  engine.reserve_live(jobs.size());
  engine.begin_live();
  for (const Job& job : jobs) {
    {
      Scope s(log, SpanName::kCloudAdvance);
      engine.advance_to(std::max(job.release, engine.now()));
    }
    Job copy = job;
    copy.id = static_cast<JobId>(live.size());
    live.push_back(copy);
    Scope s(log, SpanName::kCloudAdmit, static_cast<std::uint64_t>(copy.id));
    engine.admit_live(copy.id);
  }
  sjs::cloud::MultiSimResult result = engine.finish_live();
  dispatcher.settle(engine.now());
  dispatcher.apply_accounting(&result);
  const double n = static_cast<double>(jobs.size());
  const SpanAgg& adv = log.agg(SpanName::kCloudAdvance);
  const SpanAgg& adm = log.agg(SpanName::kCloudAdmit);
  const std::uint64_t events = log.agg(SpanName::kClusterRelease).count +
                               log.agg(SpanName::kClusterComplete).count +
                               log.agg(SpanName::kClusterExpire).count;
  out.num("cloud.advance_us", per(static_cast<double>(adv.self_ns) / 1e3,
                                  static_cast<double>(adv.count)));
  out.num("cloud.events_per_s",
          per(static_cast<double>(events),
              static_cast<double>(adv.total_ns + adm.total_ns) * 1e-9));
  out.num("cloud.dispatches_per_job", per(static_cast<double>(result.dispatches), n));
  out.num("cluster.migrations_per_completed",
          per(static_cast<double>(result.migrations),
              static_cast<double>(result.completed_count)));
  out.num("cloud.live_value_captured", result.value_fraction());
  const std::string path = scratch + "/stage_cluster_outcomes.csv";
  sjs::cloud::save_multi_outcomes_csv(result, live, path);
  return read_file(path);
}

/// Round trips in the channel probe (fewer when the journal is shorter).
constexpr std::size_t kHopMessages = 20000;

/// Acceptor <-> shard round trips through conc::Channel with WakeFd wakeups.
void conc_probe(std::size_t messages, SpanLog& log, JsonOut& out) {
  using sjs::conc::PopStatus;
  using sjs::conc::SendStatus;
  sjs::conc::Channel<sjs::serve::ShardRequest> requests(1024);
  sjs::conc::Channel<sjs::serve::ShardReply> replies(1024);
  std::atomic<std::uint64_t> shard_wakeups{0};
  std::thread shard([&] {
    while (true) {
      pollfd pfd{requests.wake_fd(), POLLIN, 0};
      ::poll(&pfd, 1, 50);
      shard_wakeups.fetch_add(1, std::memory_order_relaxed);
      if (pfd.revents & POLLIN) requests.drain_wakeups();
      sjs::serve::ShardRequest req;
      PopStatus st;
      while ((st = requests.try_pop(req)) == PopStatus::kOk) {
        sjs::serve::ShardReply rep;
        rep.msg.type = sjs::serve::MsgType::kAccepted;
        rep.msg.seq = req.seq;
        while (replies.try_send(rep) == SendStatus::kFull) std::this_thread::yield();
      }
      if (st == PopStatus::kDrained) break;
    }
    replies.close();
  });

  std::uint64_t acceptor_wakeups = 0;
  const auto await_reply = [&](std::uint64_t seq) {
    while (true) {
      pollfd pfd{replies.wake_fd(), POLLIN, 0};
      ::poll(&pfd, 1, 50);
      ++acceptor_wakeups;
      if (pfd.revents & POLLIN) replies.drain_wakeups();
      sjs::serve::ShardReply rep;
      while (replies.try_pop(rep) == PopStatus::kOk) {
        if (rep.msg.seq == seq) return;
      }
    }
  };
  for (std::size_t i = 0; i < messages; ++i) {
    sjs::serve::ShardRequest req;
    req.seq = i + 1;
    req.ticket = i;
    Scope s(log, SpanName::kHop, i);
    requests.try_send(req);
    await_reply(req.seq);
  }
  const std::uint64_t pingpong_wakeups =
      acceptor_wakeups + shard_wakeups.load(std::memory_order_relaxed);

  // Burst: the acceptor offers every message back to back (no waiting for
  // replies) and counts the refusals a full request channel gives it.
  std::uint64_t full = 0;
  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < messages) {
    while (sent < messages) {
      sjs::serve::ShardRequest req;
      req.seq = messages + sent + 1;
      if (requests.try_send(req) == SendStatus::kFull) {
        ++full;
        break;
      }
      ++sent;
    }
    replies.drain_wakeups();
    sjs::serve::ShardReply rep;
    while (replies.try_pop(rep) == PopStatus::kOk) ++received;
  }
  requests.close();
  shard.join();
  const SpanAgg& hop = log.agg(SpanName::kHop);
  out.num("conc.hop_us", per(static_cast<double>(hop.total_ns) / 1e3,
                             static_cast<double>(hop.count)));
  out.num("conc.wakeups_per_msg", per(static_cast<double>(pingpong_wakeups),
                                      static_cast<double>(messages)));
  out.num("conc.full_count", static_cast<double>(full));
}

std::uint64_t batch_digest(const sjs::Instance& instance, bool decorated) {
  const auto lineup = sjs::sched::full_lineup(instance.c_lo(), instance.c_hi());
  SpanLog log(0);
  std::unique_ptr<sjs::sim::Scheduler> sched =
      sjs::sched::find_factory(lineup, "V-Dover")->make();
  if (decorated) sched = std::make_unique<TimedScheduler>(std::move(sched), log);
  sjs::sim::Engine engine(instance, *sched);
  sjs::obs::DigestSink digest;
  engine.attach_trace(&digest);
  engine.run_to_completion();
  return digest.digest();
}

}  // namespace

bool write_text(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::printf("%s\n", text.c_str());
    return true;
  }
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

int cmd_stages(int argc, char** argv) {
  sjs::CliFlags flags;
  flags.add_string("journal", "", "session journal directory");
  flags.add_string("kind", "single", "journal kind: single | cluster");
  flags.add_string("scratch", "", "directory for the stage journals");
  flags.add_string("report", "", "JSON report path (empty = stdout)");
  flags.add_string("spans", "", "CSV file for the kept spans (empty = none)");
  if (!flags.parse(argc, argv) || flags.get_string("journal").empty() ||
      flags.get_string("scratch").empty()) {
    std::fprintf(stderr, "stages: need --journal and --scratch\n");
    return 1;
  }
  const std::string journal = flags.get_string("journal");
  const std::string scratch = flags.get_string("scratch");
  const bool cluster = flags.get_string("kind") == "cluster";
  fs::create_directories(scratch);

  std::vector<Job> jobs;
  sjs::cluster::Fleet fleet = sjs::cluster::Fleet::heterogeneous(4);
  sjs::cluster::DispatcherConfig dc;
  std::string rental = "threshold";
  std::unique_ptr<sjs::Instance> instance;
  if (cluster) {
    sjs::cluster::ClusterBundle bundle = sjs::cluster::load_cluster_bundle(journal);
    jobs = bundle.jobs;
    fleet = bundle.fleet;
    if (bundle.meta.count("sched_key") && bundle.meta.at("sched_key") == "density") {
      dc.key = sjs::cloud::GlobalKey::kValueDensity;
    }
    if (bundle.meta.count("rental")) rental = bundle.meta.at("rental");
    if (bundle.meta.count("budget")) dc.budget = std::stod(bundle.meta.at("budget"));
    if (bundle.meta.count("min_rented")) {
      dc.min_rented = static_cast<std::size_t>(std::stoul(bundle.meta.at("min_rented")));
    }
  } else {
    instance = std::make_unique<sjs::Instance>(sjs::load_instance_bundle(journal));
    jobs = instance->jobs();
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "stages: %s holds no admitted jobs\n", journal.c_str());
    return 1;
  }

  SpanLog log;
  JsonOut out;
  out.num("jobs", static_cast<double>(jobs.size()));
  codec_and_gate(jobs, cluster ? fleet.admission_c_lo() : kBandLo, log, out);
  journals(jobs, scratch, log);
  // The engine that did not serve this session replays its stream too; if
  // it refuses the stream (an engine check throws), its figures stay absent
  // and the run goes on. The session's own engine must replay it exactly.
  std::string sim_outcomes;
  std::string cloud_outcomes;
  try {
    sim_outcomes = instance ? sim_live(jobs, instance->capacity(), instance->c_lo(),
                                       instance->c_hi(), scratch, log, out)
                            : sim_live(jobs, sjs::cap::CapacityProfile(kBandHi), kBandLo,
                                       kBandHi, scratch, log, out);
  } catch (const std::exception& e) {
    if (instance) throw;
    std::fprintf(stderr, "stages: sim::Engine refused the stream: %s\n", e.what());
  }
  try {
    cloud_outcomes = cloud_live(jobs, fleet, dc, rental, scratch, log, out);
  } catch (const std::exception& e) {
    if (cluster) throw;
    std::fprintf(stderr, "stages: cloud::MultiEngine refused the stream: %s\n", e.what());
  }
  conc_probe(std::min(jobs.size(), kHopMessages), log, out);

  // Decorated live replay == the live session, byte for byte.
  const std::string live_outcomes = read_file(journal + "/outcomes.csv");
  const bool outcomes_match =
      !live_outcomes.empty() &&
      live_outcomes == (cluster ? cloud_outcomes : sim_outcomes);
  out.num("decorated_outcomes_match", outcomes_match ? 1.0 : 0.0);
  bool digest_match = true;
  if (instance) {
    digest_match = batch_digest(*instance, false) == batch_digest(*instance, true);
  }
  out.num("decorated_digest_match", digest_match ? 1.0 : 0.0);

  for (std::size_t k = 0; k < kSpanNames; ++k) {
    const SpanAgg& a = log.agg(static_cast<SpanName>(k));
    if (a.count > 0) out.agg(span_name(static_cast<SpanName>(k)), a);
  }
  out.num("spans_kept", static_cast<double>(log.kept()));
  out.num("spans_dropped", static_cast<double>(log.dropped()));
  if (!flags.get_string("spans").empty()) {
    if (std::FILE* f = std::fopen(flags.get_string("spans").c_str(), "w")) {
      log.write_csv(f);
      std::fclose(f);
    }
  }
  return write_text(flags.get_string("report"), out.text()) ? 0 : 1;
}

}  // namespace pb
