// Append-only admission journal, laid out as an instance bundle.
//
// The journal directory IS a loadable bundle (jobs.csv + capacity.csv +
// band.csv, the src/jobs/bundle.hpp layout): capacity and band are written
// once at session start, and every admitted job appends one row to jobs.csv
// the moment it is accepted — %.17g doubles, so the admission stamps
// round-trip bit-exactly. A row is formatted on the stack and reaches the
// file in one write(2) on an O_APPEND descriptor: no stream buffer sits
// between an ACCEPTED and its row. Replay is therefore just
//
//   sjs_sim --bundle=<journal dir> --scheduler=<meta.csv scheduler>
//
// and must reproduce the live session's completion set and captured value
// exactly (the engine's live mode guarantees it; asserted in
// tests/serve_test.cpp and gated in CI by scripts/serve_smoke.sh).
//
// Extra session files (ignored by the bundle loader):
//   meta.csv     key,value — scheduler name, accel, admission flag
//   cancels.csv  time,ticket — client cancellations. A session with cancels
//                is NOT replayable through sjs_sim (the replay input has no
//                cancel channel); readers must check cancel_count.
//   outcomes.csv one row per admitted job, in id order, streamed as the
//                session retires its jobs (record_outcome) with the row
//                formatter of sim::save_outcomes_csv, so the replay gate can
//                diff live vs replayed outcomes. Rows are batched in one
//                4 KiB page (allocated, never zero-filled) and reach the
//                file one write(2) per full page; the file is complete
//                once the session has drained and closed the journal. The
//                fleet's ClusterJournal streams its outcomes.csv the same
//                way. A session retires a spilled straggler
//                (sim/job_table.hpp) after later jobs, so a row may come in
//                before a lower id's: it is held, as (outcome, completion,
//                value), until every lower id's row is written. The held
//                rows span from the oldest unresolved straggler to the
//                newest retired job, the one structure that still grows
//                with the longest deadline. They live in a power-of-two
//                ring indexed by `id & mask` that follows that span, the
//                way sim::JobTable's ring does: the ring starts at 64
//                slots, reserve_held_rows() reserves --max-in-flight rows
//                without writing them, and a span that outgrows the ring
//                doubles it in place (util::ring_widen; past the
//                reservation it grows on, as one straggler can hold back
//                any number of rows).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "sim/result.hpp"
#include "util/csv.hpp"

namespace sjs::serve {

class Journal {
 public:
  struct Meta {
    std::string scheduler;
    double accel = 1.0;
    bool admission_check = true;
  };

  /// Creates the journal directory (if missing), writes capacity.csv,
  /// band.csv, and meta.csv, and opens jobs.csv / cancels.csv /
  /// outcomes.csv for appending. Throws std::runtime_error on I/O failure.
  Journal(const std::string& dir, const cap::CapacityProfile& capacity,
          double c_lo, double c_hi, const Meta& meta);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one admitted job as one write(2) (an admission the client saw
  /// ACCEPTED for must reach the file before the reply is queued). Throws
  /// std::runtime_error "journal append failed ..." on a short write or a
  /// write error (EFBIG, ENOSPC; the message carries strerror): a silently
  /// dropped row would break the replay-parity guarantee, so the session
  /// must fail loudly instead. A short write's partial row is cut off
  /// again, so the file keeps whole rows only.
  void record_admit(const Job& job);

  /// Appends one cancellation. Throws on write failure like record_admit.
  void record_cancel(double time, JobId job);

  /// Buffers job `id`'s outcomes.csv row (each id once, in any order; a
  /// row some lower id's row has not preceded yet is held, see the header).
  /// Throws std::runtime_error when a full buffer's write fails.
  void record_outcome(JobId id, sim::JobOutcome outcome, double completion,
                      double value);

  /// Reserves the held-row ring's capacity for a span of `n` ids (rounded
  /// up to a power of two) without writing it. A page of the reservation
  /// becomes resident only once the held span widens the ring into it.
  void reserve_held_rows(std::size_t n);
  /// Peak count of held rows.
  std::size_t rows_held_peak() const { return held_peak_; }
  /// Slots of the held-row ring in use: max(64, bit_ceil(peak held span)).
  std::size_t held_ring_slots() const { return held_.size(); }

  /// Writes the buffered outcome rows and closes the files (the destructor
  /// also closes them, but only close() reports failure). Throws if a write
  /// or close fails.
  void close();

  const std::string& dir() const { return dir_; }
  std::uint64_t admit_count() const { return admit_rows_; }
  std::uint64_t cancel_count() const { return cancel_rows_; }

 protected:
  /// The append-only half every journal bundle shares (the fleet's
  /// cluster::ClusterJournal too): creates `dir` and opens jobs.csv,
  /// cancels.csv and outcomes.csv; the caller writes its own preamble
  /// files.
  explicit Journal(const std::string& dir);
  /// Writes band.csv.
  void write_band(double c_lo, double c_hi) const;
  /// Writes meta.csv from key,value rows.
  void write_meta(
      const std::vector<std::pair<std::string, std::string>>& rows) const;

 private:
  /// Writes one numeric row to `fd` (`file` names it in the error).
  void append_row(int fd, const char* file, const double* fields,
                  std::size_t count);
  /// Writes the buffered outcome rows.
  void flush_outcomes();
  /// Appends job `id`'s row to the buffer.
  void write_outcome(JobId id, sim::JobOutcome outcome, double completion,
                     double value);
  /// Holds job `id`'s row until the rows below it are written.
  void hold_outcome(JobId id, sim::JobOutcome outcome, double completion,
                    double value);

  /// A held outcomes row; kPending marks a slot with no row yet.
  struct HeldRow {
    double completion;
    double value;
    sim::JobOutcome outcome;
  };
  HeldRow& held(JobId id) {
    return held_[static_cast<std::size_t>(id) & (held_.size() - 1)];
  }

  std::string dir_;
  int jobs_fd_ = -1;     ///< jobs.csv, O_APPEND
  int cancels_fd_ = -1;  ///< cancels.csv, O_APPEND
  int outcomes_fd_ = -1;  ///< outcomes.csv
  std::unique_ptr<char[]> outcome_buf_;  ///< pending rows: one write's page
  std::size_t outcome_len_ = 0;
  std::uint64_t admit_rows_ = 0;
  std::uint64_t cancel_rows_ = 0;
  /// Held rows: a power-of-two ring over ids [next_row_, held_end_),
  /// indexed by id & (size - 1); its capacity is the reservation.
  std::vector<HeldRow> held_;
  JobId next_row_ = 0;  ///< the id whose row outcomes.csv needs next
  JobId held_end_ = 0;
  std::size_t held_count_ = 0;
  std::size_t held_peak_ = 0;
};

/// meta.csv as a key→value map. Throws on missing/malformed file.
std::map<std::string, std::string> read_journal_meta(const std::string& dir);

/// time,ticket rows of cancels.csv (empty when the file is absent).
std::vector<std::pair<double, JobId>> read_journal_cancels(
    const std::string& dir);

}  // namespace sjs::serve
