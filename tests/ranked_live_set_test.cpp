// cloud::RankedLiveSet — the live set both fleet schedulers (global EDF/HVDF
// and the cluster dispatcher) read their top-R winners from. The contract
// the replay digests rest on: for every R <= K the first R head entries are
// exactly the first R entries of the std::set<std::pair<double, JobId>> it
// replaced. A seeded differential drives the set and that reference through
// the same insert/erase streams and compares after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "cloud/global_sched.hpp"
#include "cloud/ranked_live_set.hpp"
#include "util/rng.hpp"

namespace sjs::cloud {
namespace {

using Reference = std::set<std::pair<double, JobId>>;

/// Every top-R prefix, R = 1..K, must match the reference's first R.
void expect_same_ranking(const RankedLiveSet& set, const Reference& reference,
                         std::size_t k) {
  ASSERT_EQ(set.size(), reference.size());
  const auto head = set.head();
  ASSERT_EQ(head.size(), std::min(k, reference.size()));
  for (std::size_t r = 1; r <= k; ++r) {
    auto it = reference.begin();
    for (std::size_t i = 0; i < std::min(r, head.size()); ++i, ++it) {
      ASSERT_EQ(head[i].key, it->first) << "R=" << r << " rank " << i;
      ASSERT_EQ(head[i].id, it->second) << "R=" << r << " rank " << i;
    }
  }
}

/// One randomized episode: jobs with small-integer deadlines and densities
/// (so equal keys are common), keyed by `key`, inserted in release order and
/// erased at random (completions/expiries). `id_bound` is the reserve given
/// to begin_run(); ids run past it when it is smaller than `jobs`.
void run_episode(GlobalKey key, std::size_t k, std::size_t jobs,
                 std::size_t id_bound, std::uint64_t seed) {
  Rng rng(seed, 9);
  RankedLiveSet set;
  set.begin_run(k, id_bound);
  Reference reference;
  std::vector<JobId> live;
  JobId next = 0;
  while (static_cast<std::size_t>(next) < jobs || !live.empty()) {
    const bool release = static_cast<std::size_t>(next) < jobs &&
                         (live.empty() || rng.bernoulli(0.55));
    if (release) {
      Job job;
      job.id = next++;
      job.workload = 1.0 + static_cast<double>(rng.below(3));
      job.value = 1.0 + static_cast<double>(rng.below(6));
      job.deadline = static_cast<double>(rng.below(12));
      const double rank = global_key(key, job);
      set.insert(rank, job.id);
      reference.emplace(rank, job.id);
      live.push_back(job.id);
    } else {
      const auto pick = static_cast<std::size_t>(rng.below(live.size()));
      const JobId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      const auto it = std::find_if(
          reference.begin(), reference.end(),
          [id](const std::pair<double, JobId>& e) { return e.second == id; });
      reference.erase(it);
      ASSERT_TRUE(set.erase(id));
      // Erasing it again (a job purged twice) is a tolerated no-op.
      ASSERT_FALSE(set.erase(id));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_ranking(set, reference, k));
  }
}

TEST(RankedLiveSet, MatchesOrderedSetForBothKeys) {
  for (const GlobalKey key : {GlobalKey::kDeadline, GlobalKey::kValueDensity}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{6}}) {
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        SCOPED_TRACE(testing::Message() << "key " << static_cast<int>(key)
                                        << " K " << k << " seed " << seed);
        ASSERT_NO_FATAL_FAILURE(run_episode(key, k, 400, 400, seed));
      }
    }
  }
}

TEST(RankedLiveSet, HeadLargerThanTheLiveCount) {
  // K above every live count: the tail never fills and the head is the
  // whole set.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    run_episode(GlobalKey::kDeadline, 512, 200, 200, seed);
  }
}

TEST(RankedLiveSet, IdsBeyondTheInitialReserve) {
  // Live mode: the engine's job count at on_start is 0 and ids grow with
  // the session.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    run_episode(GlobalKey::kValueDensity, 3, 600, 0, seed);
    run_episode(GlobalKey::kDeadline, 3, 600, 16, seed);
  }
}

TEST(RankedLiveSet, ResetEmptiesTheSet) {
  RankedLiveSet set;
  set.begin_run(2, 8);
  for (JobId id = 0; id < 6; ++id) set.insert(static_cast<double>(6 - id), id);
  EXPECT_EQ(set.size(), 6u);
  ASSERT_EQ(set.head().size(), 2u);
  EXPECT_EQ(set.head()[0].id, 5);
  EXPECT_EQ(set.head()[1].id, 4);
  set.begin_run(3, 8);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.head().empty());
  EXPECT_FALSE(set.erase(5));
  // Ids freed by the reset can be inserted again.
  set.insert(1.0, 5);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.head()[0].id, 5);
}

}  // namespace
}  // namespace sjs::cloud
