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
      in_flight_peak(label(kGaugeInFlightPeak, suffix)),
      window_peak(label(kGaugeWindowPeak, suffix)),
      window_slots(label(kGaugeWindowSlots, suffix)),
      window_reserved(label(kGaugeWindowReserved, suffix)),
      window_stragglers(label(kGaugeWindowStragglers, suffix)),
      outcome_rows_held(label(kGaugeOutcomeRowsHeld, suffix)),
      outcome_ring_slots(label(kGaugeOutcomeRingSlots, suffix)),
      wake_socket(label(kCtrWakeSocket, suffix)),
      wake_timer(label(kCtrWakeTimer, suffix)),
      wake_timer_empty(label(kCtrWakeTimerEmpty, suffix)),
      wake_dead_skipped(label(kCtrWakeDeadSkipped, suffix)),
      wake_late_p50(label(kGaugeWakeLateP50, suffix)),
      wake_late_p99(label(kGaugeWakeLateP99, suffix)),
      wake_late_max(label(kGaugeWakeLateMax, suffix)) {}

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

template class Session<LocalBackend>;

}  // namespace sjs::serve
