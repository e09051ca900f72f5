// serve::Journal's outcomes.csv stream, driven directly.
//
// A session retires its jobs in the order they resolve, and a spilled
// straggler resolves after later jobs, so record_outcome sees ids out of
// order: the journal holds a row until every lower id's row is written,
// in a power-of-two ring over the held span that starts at 64 slots and
// doubles in place (util::ring_widen), inside its reservation and past it.
// These tests retire ids in random orders with a bounded set of unresolved
// stragglers and compare the file with an id-ordered reference, byte for
// byte, and the held-row peak and ring size with a plain model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "serve/journal.hpp"
#include "sim/result.hpp"
#include "temp_path.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Job `id`'s outcome row fields, a function of the id alone.
sim::JobOutcome outcome_of(JobId id) {
  return id % 3 == 0 ? sim::JobOutcome::kExpired : sim::JobOutcome::kCompleted;
}
double completion_of(JobId id) { return 0.25 * static_cast<double>(id) + 0.1; }
double value_of(JobId id) { return 1.0 + static_cast<double>(id % 7) / 3.0; }

/// How a session of `n` ids retires them.
struct RetireShape {
  std::size_t n = 0;
  /// Ids resolve within this many arrivals of their admission, in a
  /// random order.
  std::uint64_t jitter = 8;
  /// Chance that an id is a straggler, while fewer than `max_stragglers`
  /// are unresolved; a straggler resolves [straggler_lo, straggler_hi)
  /// arrivals after its admission.
  double straggler_p = 0.0;
  std::size_t max_stragglers = 0;
  std::uint64_t straggler_lo = 0;
  std::uint64_t straggler_hi = 0;
};

/// The order in which the ids [0, shape.n) retire.
std::vector<JobId> retire_order(const RetireShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  // (arrival at which the id resolves, tie-break, id)
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, JobId>> due;
  std::multiset<std::uint64_t> straggler_due;
  for (std::size_t i = 0; i < shape.n; ++i) {
    while (!straggler_due.empty() && *straggler_due.begin() <= i) {
      straggler_due.erase(straggler_due.begin());
    }
    std::uint64_t at = i + rng.below(shape.jitter + 1);
    if (straggler_due.size() < shape.max_stragglers &&
        rng.bernoulli(shape.straggler_p)) {
      at = i + shape.straggler_lo +
           rng.below(shape.straggler_hi - shape.straggler_lo);
      straggler_due.insert(at);
    }
    due.push_back({{at, rng()}, static_cast<JobId>(i)});
  }
  std::sort(due.begin(), due.end());
  std::vector<JobId> order;
  for (const auto& d : due) order.push_back(d.second);
  return order;
}

/// What the journal should report for `order`: the peak count of held
/// rows and the peak held span (id + 1 minus the next id to write, over
/// every row that was held).
struct HeldModel {
  std::size_t rows_peak = 0;
  std::size_t span_peak = 0;
};

HeldModel model_held(const std::vector<JobId>& order) {
  HeldModel m;
  std::set<JobId> held;
  JobId next = 0;
  for (const JobId id : order) {
    if (id > next) {
      held.insert(id);
      m.rows_peak = std::max(m.rows_peak, held.size());
      m.span_peak =
          std::max(m.span_peak, static_cast<std::size_t>(id + 1 - next));
      continue;
    }
    ++next;
    while (!held.empty() && *held.begin() == next) {
      held.erase(held.begin());
      ++next;
    }
  }
  return m;
}

/// outcomes.csv as an id-ordered writer would produce it.
std::string reference_csv(std::size_t n) {
  std::string out = sim::kOutcomesCsvHeader;
  char row[sim::kOutcomeRowMax];
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<JobId>(i);
    out.append(row, sim::format_outcome_row(row, id, outcome_of(id),
                                            completion_of(id), value_of(id)));
  }
  return out;
}

/// Streams `order` through a journal whose held rows were reserved for
/// `reserve` ids, checks the file, the held-row peak and the ring, and
/// returns the ring's final slots.
std::size_t expect_journal_matches(const RetireShape& shape,
                                   std::uint64_t seed, std::size_t reserve) {
  const std::vector<JobId> order = retire_order(shape, seed);
  EXPECT_EQ(order.size(), shape.n);
  const HeldModel model = model_held(order);
  const std::string dir = testutil::fresh_dir("journal");
  serve::Journal journal(dir, cap::CapacityProfile(1.0), 0.5, 1.0,
                         serve::Journal::Meta{"EDF", 1.0, true});
  journal.reserve_held_rows(reserve);
  EXPECT_EQ(journal.held_ring_slots(), 64u);
  for (const JobId id : order) {
    journal.record_outcome(id, outcome_of(id), completion_of(id),
                           value_of(id));
  }
  const std::size_t slots = journal.held_ring_slots();
  journal.close();

  std::ostringstream what;
  what << "seed " << seed << ", reserve " << reserve << ", held peak "
       << model.rows_peak << ", span peak " << model.span_peak;
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), reference_csv(shape.n))
      << what.str();
  EXPECT_EQ(journal.rows_held_peak(), model.rows_peak) << what.str();
  EXPECT_EQ(slots, std::max<std::size_t>(64, std::bit_ceil(model.span_peak)))
      << what.str();
  return slots;
}

TEST(Journal, InOrderRetiresHoldNothingAndKeepTheFirstRing) {
  const RetireShape shape{.n = 5000, .jitter = 0};
  for (const std::size_t reserve : {1, 64, 4096}) {
    EXPECT_EQ(expect_journal_matches(shape, 1, reserve), 64u);
  }
}

TEST(Journal, JitteredRetiresMatchTheIdOrderedFile) {
  // Short reorderings only: the span stays inside the first ring.
  const RetireShape shape{.n = 20000, .jitter = 24};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(expect_journal_matches(shape, seed, 4096), 64u);
  }
}

TEST(Journal, StragglersWidenTheHeldRingInPlaceInsideItsReservation) {
  // Stragglers hold rows back for hundreds to a few thousand arrivals, so
  // the held span crosses several doublings (64 -> 4096) without reaching
  // the reservation.
  const RetireShape shape{.n = 30000,
                          .jitter = 8,
                          .straggler_p = 0.01,
                          .max_stragglers = 6,
                          .straggler_lo = 100,
                          .straggler_hi = 3000};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::size_t slots = expect_journal_matches(shape, seed, 4096);
    EXPECT_GE(slots, 1024u);
    EXPECT_LE(slots, 4096u);
  }
}

TEST(Journal, HeldRingGrowsPastItsReservation) {
  // One straggler can hold back more rows than --max-in-flight: a ring at
  // its reservation keeps doubling (reallocating with the rows kept).
  const RetireShape shape{.n = 30000,
                          .jitter = 8,
                          .straggler_p = 0.01,
                          .max_stragglers = 3,
                          .straggler_lo = 500,
                          .straggler_hi = 6000};
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    for (const std::size_t reserve : {16, 256}) {
      EXPECT_GT(expect_journal_matches(shape, seed, reserve), 256u);
    }
  }
}

TEST(Journal, WithoutAReservationTheRingGrowsFromItsFirstSlots) {
  const RetireShape shape{.n = 4000,
                          .jitter = 4,
                          .straggler_p = 0.02,
                          .max_stragglers = 2,
                          .straggler_lo = 50,
                          .straggler_hi = 400};
  const std::vector<JobId> order = retire_order(shape, 9);
  const HeldModel model = model_held(order);
  const std::string dir = testutil::fresh_dir("journal");
  serve::Journal journal(dir, cap::CapacityProfile(1.0), 0.5, 1.0,
                         serve::Journal::Meta{"EDF", 1.0, true});
  EXPECT_EQ(journal.held_ring_slots(), 64u);
  for (const JobId id : order) {
    journal.record_outcome(id, outcome_of(id), completion_of(id),
                           value_of(id));
  }
  EXPECT_EQ(journal.held_ring_slots(),
            std::max<std::size_t>(64, std::bit_ceil(model.span_peak)));
  journal.close();
  EXPECT_EQ(slurp(dir + "/outcomes.csv"), reference_csv(shape.n));
  EXPECT_EQ(journal.rows_held_peak(), model.rows_peak);
}

}  // namespace
}  // namespace sjs
