// Span recording and timing decorators for the benchmark's traced runs.
//
// Spans are recorded from OUTSIDE the program: around calls into a layer's
// public functions, or inside a forwarding decorator the layer accepts as
// an injected dependency (sim::Scheduler for the single-engine server and
// engine replays, cloud::GlobalScheduler for the fleet dispatcher). The decorators
// only forward and time; they never change a decision, which the traced
// runs check by comparing outcomes and replay digests with undecorated runs.
//
// A SpanLog belongs to one thread. Spans nest by call order: the span open
// when another opens is its parent, and a span's self time is its duration
// minus the time covered by its children. Every closed span is folded into
// a per-name aggregate; the first `capacity` spans are also kept in memory
// and written out when the run ends.
#pragma once

#include <array>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/multi_engine.hpp"
#include "sim/scheduler.hpp"

namespace pb {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

enum class SpanName : std::uint8_t {
  kStep,            ///< one server step() (host loop)
  kSchedRelease,    ///< sim::Scheduler hooks
  kSchedComplete,
  kSchedExpire,
  kSchedTimer,
  kSchedCapacity,
  kClusterRelease,  ///< cloud::GlobalScheduler hooks
  kClusterComplete,
  kClusterExpire,
  kDecode,          ///< FrameDecoder::feed + next, one SUBMIT
  kEncode,          ///< encode_frame_into, one reply
  kGate,            ///< AdmissionGate::evaluate
  kJournal,         ///< Journal::record_admit
  kClusterJournal,  ///< ClusterJournal::record_admit
  kAdmitLive,       ///< sim::Engine::admit_live
  kAdvance,         ///< sim::Engine::advance_to
  kCloudAdmit,      ///< cloud::MultiEngine::admit_live
  kCloudAdvance,    ///< cloud::MultiEngine::advance_to
  kHop,             ///< acceptor -> shard -> acceptor channel round trip
  kGenerate,        ///< gen::generate_paper_instance / generate_jobs
  kSamplePaths,     ///< cluster::Fleet::sample_paths
  kRun,             ///< sim::Engine::run_to_completion
  kClusterRun,      ///< cluster::run_cluster
  kCount
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

/// Stable text names, indexed by SpanName (also the spans file's name table).
const char* span_name(SpanName name);

struct SpanAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1 << 17);

  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t open(SpanName name, std::uint64_t ticket = kNoTicket);
  void close(std::uint32_t handle);

  const SpanAgg& agg(SpanName name) const {
    return agg_[static_cast<std::size_t>(name)];
  }
  std::uint64_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Appends the kept spans as CSV rows: name,parent,ticket,start_ns,end_ns
  /// (parent = row index within this log, -1 for a root).
  void write_csv(std::FILE* out) const;

  static constexpr std::uint64_t kNoTicket = ~0ULL;

 private:
  struct Span {
    SpanName name;
    std::int64_t parent;
    std::uint64_t ticket;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    SpanName name;
    std::int64_t index;  ///< row in spans_, or -1 when not kept
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::array<SpanAgg, kSpanNames> agg_{};
  std::uint64_t dropped_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, SpanName name, std::uint64_t ticket = SpanLog::kNoTicket)
      : log_(log), handle_(log.open(name, ticket)) {}
  ~Scope() { log_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t handle_;
};

/// Forwarding sim::Scheduler that times every hook into `log`.
class TimedScheduler final : public sjs::sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sjs::sim::Scheduler> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void on_start(sjs::sim::Engine& e) override { inner_->on_start(e); }
  void on_release(sjs::sim::Engine& e, sjs::JobId j) override {
    Scope s(log_, SpanName::kSchedRelease, static_cast<std::uint64_t>(j));
    inner_->on_release(e, j);
  }
  void on_complete(sjs::sim::Engine& e, sjs::JobId j) override {
    Scope s(log_, SpanName::kSchedComplete, static_cast<std::uint64_t>(j));
    inner_->on_complete(e, j);
  }
  void on_expire(sjs::sim::Engine& e, sjs::JobId j, bool running) override {
    Scope s(log_, SpanName::kSchedExpire, static_cast<std::uint64_t>(j));
    inner_->on_expire(e, j, running);
  }
  void on_timer(sjs::sim::Engine& e, sjs::JobId j, int tag) override {
    Scope s(log_, SpanName::kSchedTimer, static_cast<std::uint64_t>(j));
    inner_->on_timer(e, j, tag);
  }
  void on_capacity_change(sjs::sim::Engine& e) override {
    Scope s(log_, SpanName::kSchedCapacity);
    inner_->on_capacity_change(e);
  }
  bool wants_capacity_events() const override {
    return inner_->wants_capacity_events();
  }
  QueueStats queue_stats() const override { return inner_->queue_stats(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sjs::sim::Scheduler> inner_;
  SpanLog& log_;
};

/// Forwarding cloud::GlobalScheduler that times every hook into `log`.
class TimedGlobalScheduler final : public sjs::cloud::GlobalScheduler {
 public:
  TimedGlobalScheduler(sjs::cloud::GlobalScheduler& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void on_start(sjs::cloud::MultiEngine& e) override { inner_.on_start(e); }
  void on_release(sjs::cloud::MultiEngine& e, sjs::JobId j) override {
    Scope s(log_, SpanName::kClusterRelease, static_cast<std::uint64_t>(j));
    inner_.on_release(e, j);
  }
  void on_complete(sjs::cloud::MultiEngine& e, sjs::JobId j,
                   std::size_t server) override {
    Scope s(log_, SpanName::kClusterComplete, static_cast<std::uint64_t>(j));
    inner_.on_complete(e, j, server);
  }
  void on_expire(sjs::cloud::MultiEngine& e, sjs::JobId j,
                 std::size_t server) override {
    Scope s(log_, SpanName::kClusterExpire, static_cast<std::uint64_t>(j));
    inner_.on_expire(e, j, server);
  }
  std::string name() const override { return inner_.name(); }

 private:
  sjs::cloud::GlobalScheduler& inner_;
  SpanLog& log_;
};

/// Minimal JSON object writer for the probes' reports.
class JsonOut {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  void list(const std::string& key, const std::vector<double>& values);
  /// The aggregate of `name` in `log` as <prefix>.{count,total_ns,self_ns}.
  void agg(const std::string& prefix, const SpanAgg& a);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace pb
