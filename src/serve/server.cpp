#include "serve/server.hpp"

#include "serve/session_impl.hpp"

namespace sjs::serve {

namespace {

std::string label(std::string_view name, std::string_view suffix) {
  return std::string(name).append(suffix);
}

}  // namespace

SessionCounterNames::SessionCounterNames(std::string_view suffix)
    : submitted(label(kCtrSubmitted, suffix)),
      accepted(label(kCtrAccepted, suffix)),
      rejected(label(kCtrRejected, suffix)),
      shed(label(kCtrShed, suffix)),
      completed(label(kCtrCompleted, suffix)),
      expired(label(kCtrExpired, suffix)),
      cancelled(label(kCtrCancelled, suffix)),
      in_flight_peak(label(kGaugeInFlightPeak, suffix)) {}

LocalBackend::LocalBackend(const ServerConfig& config,
                           std::unique_ptr<sim::Scheduler> scheduler)
    : config_(config),
      scheduler_(std::move(scheduler)),
      instance_(std::vector<Job>{}, config_.capacity,
                config_.c_lo > 0.0 ? config_.c_lo
                                   : config_.capacity.min_rate(),
                config_.c_hi > 0.0 ? config_.c_hi
                                   : config_.capacity.max_rate()),
      engine_(instance_, *scheduler_) {}

JobState LocalBackend::state(JobId id) const {
  if (engine_.is_completed(id)) return JobState::kCompleted;
  if (engine_.is_expired(id)) return JobState::kExpired;
  if (engine_.running() == id) return JobState::kRunning;
  return JobState::kQueued;
}

std::unique_ptr<Journal> LocalBackend::open_journal() const {
  if (config_.journal_dir.empty()) return nullptr;
  Journal::Meta meta;
  meta.scheduler = config_.scheduler_name;
  meta.accel = config_.accel;
  meta.admission_check = config_.admission_check;
  return std::make_unique<Journal>(config_.journal_dir, instance_.capacity(),
                                   instance_.c_lo(), instance_.c_hi(), meta);
}

sim::SimResult LocalBackend::finish() {
  sim::SimResult result = engine_.finish_live();
  result.scheduler_name = config_.scheduler_name;
  return result;
}

void LocalBackend::save_outcomes(const sim::SimResult& result,
                                 const std::string& path) const {
  sim::save_outcomes_csv(result, instance_.jobs(), path);
}

template class Session<LocalBackend>;

}  // namespace sjs::serve
