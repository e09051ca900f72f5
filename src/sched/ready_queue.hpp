// ReadyQueue — flat, addressable d-ary heap for scheduler ready queues.
//
// Every priority-driven scheduler in src/sched/ keeps its ready jobs ordered
// by one double key (deadline, laxity intercept, remaining work, value, ...).
// The original implementation was std::set<std::pair<double, JobId>>: a
// node-based red-black tree paying one heap allocation per insert and a
// pointer chase per begin()/erase() — the dominant per-event cost of the
// queue-heavy schedulers (LLF, V-Dover) in BM_FullSimulation. ReadyQueue
// replaces it with a 4-ary min-heap (or max-heap, by policy) over contiguous
// (key, id) storage plus a JobId -> heap-position index, giving
//
//   push / pop / erase-by-id / update-key   O(log n), allocation-free after
//                                           reserve()
//   top / contains / key_of                 O(1)
//
// Ordering contract (digest-gated — see docs/performance.md): the pop order
// is EXACTLY that of the std::set it replaced. kMinFirst pops the smallest
// (key, id) pair lexicographically (ties broken toward the smaller JobId);
// kMaxFirst pops the largest (key, id) pair (ties toward the LARGER JobId,
// matching std::set<..., std::greater<>>). JobIds are unique within a queue,
// so the pop sequence is a total order independent of insertion order and of
// the heap's internal layout.
//
// Addressable-slot invalidation rules: the position index is a power-of-two
// table keyed by `id & mask`, like the engine's job window
// (sim/job_table.hpp), with collisions resolved by Robin Hood linear
// probing (util/id_probe.hpp): an id whose home slot is taken uses a later
// one. So the index is bounded by the number of jobs queued at once, not by
// the span of their ids (a spilled straggler queues thousands of ids below
// the newest job) nor by the number of jobs ever admitted. reserve()
// reserves its capacity without writing it: the index starts at 16 slots
// and doubles, re-inserting the queued entries, once a push would leave it
// more than half full, so the pages it touches follow the queue's peak
// occupancy, not the pre-size. An index slot names a heap position whose
// entry carries the id, so contains(id) checks that the slot holds that
// id. push() requires the id to be absent; erase()/pop() free the id's
// slot immediately (erase of an absent id is a tolerated no-op —
// schedulers purge expired jobs from every queue they might be in). Keys
// are frozen at push(); a key that must change goes through update_key(),
// never through mutation in place.
//
// clear() keeps the backing storage, and destroyed queues donate their
// buffers to a small thread-local recycler that the next queue constructed
// on the same thread adopts — so mc::run_monte_carlo's engine-reuse path,
// which constructs one fresh scheduler per (run, scheduler) cell on whichever
// thread runs that run's block (the caller's own thread for the first block,
// and for every run of a one-worker campaign), reuses queue storage across
// cells, and across calls on the same thread, just as Engine::reset()
// reuses the event heap and timer slab.
#pragma once

#include <cstdint>
#include <vector>

#include "jobs/job.hpp"
#include "util/fp.hpp"
#include "util/id_probe.hpp"

namespace sjs::sched {

/// Pop-order policy: which (key, id) pair top()/pop() yield.
enum class QueueOrder : std::uint8_t {
  kMinFirst,  ///< smallest (key, id), ties toward the smaller id
  kMaxFirst,  ///< largest (key, id), ties toward the larger id
};

class ReadyQueue {
 public:
  struct Entry {
    double key;
    JobId id;
  };

  explicit ReadyQueue(QueueOrder order = QueueOrder::kMinFirst);
  ~ReadyQueue();

  ReadyQueue(const ReadyQueue&) = delete;
  ReadyQueue& operator=(const ReadyQueue&) = delete;

  /// Reserves the position index and heap storage for id_bound queued
  /// jobs, so a run that never queues more performs no allocation after this
  /// call. Only capacity is reserved: the index is sized as the queue grows
  /// into it. Schedulers call it from on_start with
  /// engine.job_capacity_hint().
  void reserve(std::size_t id_bound);

  /// Empties the queue in O(index slots in use), keeping all storage for
  /// reuse. The peak statistic is NOT reset (it is a lifetime high-water
  /// mark).
  void clear();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// True iff `id` is currently queued. O(1).
  bool contains(JobId id) const {
    return id >= 0 && !pos_.empty() && index_slot(id) < pos_.size();
  }

  /// Key `id` was queued with. The job must be queued. O(1).
  double key_of(JobId id) const;

  /// The best entry per the queue's policy. The queue must be non-empty.
  const Entry& top() const;

  /// Inserts `id` with `key`. The id must not already be queued.
  void push(double key, JobId id);

  /// Removes and returns the best entry. The queue must be non-empty.
  Entry pop();

  /// Removes `id` if queued; returns whether it was. Erasing an absent id is
  /// a no-op (schedulers purge dead jobs from every queue they might be in).
  bool erase(JobId id);

  /// Re-keys a queued job in place (one sift instead of erase + push).
  void update_key(JobId id, double key);

  /// Lifetime high-water mark of size() — the per-run occupancy peak
  /// surfaced as SimResult::queue_peak / the sched.queue.peak gauge.
  std::uint64_t peak() const { return peak_; }

  /// Entry slots currently reserved (capacity of the backing array).
  std::uint64_t slots() const { return heap_.capacity(); }
  /// Slots of the position index in use (a power of two, 0 before the
  /// first push), and the slots its storage holds without reallocating.
  std::size_t index_slots() const { return pos_.size(); }
  std::size_t index_reserved() const { return pos_.capacity(); }

  /// Visits entries in unspecified order (the raw heap layout). Only for
  /// order-insensitive consumers — anything whose result feeds a schedule
  /// decision or a trace payload must use for_each_ordered instead.
  template <typename F>
  void for_each_unordered(F&& f) const {
    for (const Entry& e : heap_) f(e);
  }

  /// Visits entries in exact pop order (the order the replaced std::set
  /// iterated in) without disturbing the queue. O(n log n) via a scratch
  /// sort; the scratch buffer is retained, so repeated calls do not
  /// allocate. Safe against mutation of THIS queue from inside `f` (the
  /// visit walks a snapshot), which the V-Dover capacity-change re-arm path
  /// relies on.
  template <typename F>
  void for_each_ordered(F&& f) const {
    snapshot_ordered();
    for (const Entry& e : scratch_) f(e);
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// Slots of the index a queue's first push() creates.
  static constexpr std::size_t kFirstSlots = 16;

  /// Strict priority: true iff `a` pops before `b`. Total order (JobIds are
  /// unique), identical to the lexicographic pair order of the replaced set.
  bool before(const Entry& a, const Entry& b) const {
    if (order_ == QueueOrder::kMinFirst) {
      return a.key < b.key || (fp::exact_eq(a.key, b.key) && a.id < b.id);
    }
    return a.key > b.key || (fp::exact_eq(a.key, b.key) && a.id > b.id);
  }

  /// The id whose entry index slot `s` names (kNoJob when free).
  JobId id_in(std::size_t s) const {
    const std::uint32_t p = pos_[s];
    return p == kNpos ? kNoJob : heap_[p].id;
  }
  /// The index slot of queued `id`; pos_.size() when it is not queued.
  std::size_t index_slot(JobId id) const {
    return util::probe_find(pos_.size() - 1, id,
                            [this](std::size_t s) { return id_in(s); });
  }
  /// Enters heap position `p` (its entry already in place) in the index.
  void index_insert(std::uint32_t p);

  /// Puts `e`, whose index slot is `index`, at heap position `slot`.
  void place(std::size_t slot, const Entry& e, std::uint32_t index) {
    heap_[slot] = e;
    where_[slot] = index;
    pos_[index] = static_cast<std::uint32_t>(slot);
  }

  /// Resizes the position index to `slots` (a power of two) and re-slots
  /// every queued entry.
  void resize_index(std::size_t slots);
  /// Removes the heap entry at `slot`, keeping the heap property.
  void remove_at(std::size_t slot);

  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);
  /// Fills scratch_ with the entries sorted into pop order.
  void snapshot_ordered() const;

  QueueOrder order_;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> where_;  // heap slot -> its entry's index slot
  std::vector<std::uint32_t> pos_;  // probed from id & mask: heap slot or kNpos
  mutable std::vector<Entry> scratch_;
  std::uint64_t peak_ = 0;
};

}  // namespace sjs::sched
