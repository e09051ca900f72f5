// RankedLiveSet — the live-job set of the global (fleet) schedulers, ranked
// by one double key, answering "the best R live jobs, in order" for any R up
// to a fixed K (the server or fleet count).
//
// Both cloud::GlobalKeyScheduler and cluster::Dispatcher re-place their
// top-K jobs at every interrupt, so the set splits in two:
//
//   * head — the best min(K, size) (key, id) entries, sorted, in flat
//     storage: head() IS the top-K answer, read without a walk;
//   * tail — every other entry, in a sched::ReadyQueue that refills the
//     head when a head entry leaves.
//
// Invariant: the head holds min(K, size) entries and every head entry ranks
// before every tail entry. insert/erase cost O(K + log n): a shift inside
// the head plus at most one tail push or pop. begin_run() pre-sizes both sides
// (the head to K, the tail's id index to the job count), so a batch run
// allocates nothing after on_start; in live mode ids grow with the session
// and the tail's index probes past colliding ids, growing geometrically with
// its occupancy only, never once per release.
//
// Order: ascending (key, id), ties toward the smaller id — exactly the
// iteration order of the node-based ordered set of (key, id) pairs both
// schedulers used to keep, so the swap is digest-neutral.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "jobs/job.hpp"
#include "sched/ready_queue.hpp"
#include "util/fp.hpp"

namespace sjs::cloud {

class RankedLiveSet {
 public:
  using Entry = sched::ReadyQueue::Entry;

  /// Empties the set and sizes it for a run: a head of `head_capacity` (K)
  /// entries and JobIds spanning fewer than `id_bound`. Keeps every
  /// allocation for reuse. (Not `reset`: the hot-path analyzer resolves
  /// calls by name, and a connection accept resets its frame decoder.)
  void begin_run(std::size_t head_capacity, std::size_t id_bound);

  /// Inserts `id` with `key`. The id must not be in the set.
  void insert(double key, JobId id);

  /// Removes `id` if present; returns whether it was.
  bool erase(JobId id);

  std::size_t size() const { return head_.size() + tail_.size(); }

  /// The best min(K, size()) entries in rank order; the best R for any
  /// R <= K are its first R entries.
  std::span<const Entry> head() const { return head_; }

 private:
  static bool before(const Entry& a, const Entry& b) {
    return a.key < b.key || (fp::exact_eq(a.key, b.key) && a.id < b.id);
  }
  /// Appends `entry` to a non-full head and shifts it into rank order.
  void insert_head(const Entry& entry);

  std::size_t capacity_ = 0;
  std::vector<Entry> head_;
  sched::ReadyQueue tail_{sched::QueueOrder::kMinFirst};
};

}  // namespace sjs::cloud
