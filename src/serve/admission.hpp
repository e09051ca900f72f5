// AdmissionGate — the per-engine admission decision procedure. Each
// serve::Session owns one, so every serving mode (single, each shard of the
// sharded plane, the fleet) runs the IDENTICAL sequence:
//
//   draining              → REJECTED(draining)
//   in_flight >= limit    → SHED                  (backpressure)
//   [stamp consumed here — even an invalid submit advances the chain]
//   invalid p/d_rel/v     → REJECTED(invalid)
//   d − r < p / c_lo      → REJECTED(inadmissible)    [Thm. 3(3)]
//   otherwise             → ACCEPTED with the stamped Job
//
// The gate owns the strictly-increasing admission-stamp chain
// (max(virtual_now, engine_now), nextafter on collision) that the journal
// replay contract depends on; one gate per engine, used from that engine's
// thread only. Byte-identity between the N=1 sharded server and the
// single-threaded server (tests/sharded_serve_test.cpp) holds because both
// call this one implementation.
#pragma once

#include <cstdint>

#include "jobs/job.hpp"
#include "serve/protocol.hpp"

namespace sjs::serve {

class AdmissionGate {
 public:
  AdmissionGate(double c_lo, bool admission_check,
                std::uint64_t max_in_flight)
      : c_lo_(c_lo),
        admission_check_(admission_check),
        max_in_flight_(max_in_flight) {}

  struct Decision {
    MsgType reply = MsgType::kRejected;  ///< kAccepted / kRejected / kShed
    RejectReason reason = RejectReason::kInvalid;  ///< when kRejected
    Job job;  ///< release-stamped; meaningful only when kAccepted
  };

  /// One submit through the gate. `virtual_now`/`engine_now` are the
  /// caller's clock-bridge and engine readings at decision time.
  Decision evaluate(double workload, double rel_deadline, double value,
                    double virtual_now, double engine_now, bool draining,
                    std::uint64_t in_flight);

  std::uint64_t max_in_flight() const { return max_in_flight_; }

 private:
  /// Strictly-increasing virtual admission stamp.
  double stamp(double virtual_now, double engine_now);

  double c_lo_;
  bool admission_check_;
  std::uint64_t max_in_flight_;
  double last_stamp_ = -1.0;
};

}  // namespace sjs::serve
