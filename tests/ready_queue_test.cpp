// sched::ReadyQueue — the flat addressable heap every scheduler's ready
// queue runs on. The load-bearing property is the ordering contract: pop
// order must be EXACTLY the iteration order of the std::set<pair<double,
// JobId>> (or its greater<> twin) that the queue replaced, because the
// replay-digest gate freezes every schedule decision that order feeds. The
// differential tests drive the queue and an ordered-set reference model
// through the same randomized operation streams and compare observable
// behavior after every step.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sched/ready_queue.hpp"
#include "util/rng.hpp"

namespace sjs::sched {
namespace {

// Ordered-set reference model with the same API surface. kMinFirst mirrors
// std::set<pair<...>>, kMaxFirst mirrors std::set<pair<...>, greater<>>; a
// side map provides erase-by-id / key_of.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(QueueOrder order) : order_(order) {}

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  bool contains(JobId id) const { return key_by_id_.count(id) > 0; }
  double key_of(JobId id) const { return key_by_id_.at(id); }

  std::pair<double, JobId> top() const {
    return order_ == QueueOrder::kMinFirst ? *entries_.begin()
                                           : *entries_.rbegin();
  }

  void push(double key, JobId id) {
    entries_.emplace(key, id);
    key_by_id_.emplace(id, key);
  }

  std::pair<double, JobId> pop() {
    const auto it = order_ == QueueOrder::kMinFirst
                        ? entries_.begin()
                        : std::prev(entries_.end());
    const auto entry = *it;
    entries_.erase(it);
    key_by_id_.erase(entry.second);
    return entry;
  }

  bool erase(JobId id) {
    const auto it = key_by_id_.find(id);
    if (it == key_by_id_.end()) return false;
    entries_.erase({it->second, id});
    key_by_id_.erase(it);
    return true;
  }

  void update_key(JobId id, double key) {
    erase(id);
    push(key, id);
  }

  /// Entries in the pop order the contract promises.
  std::vector<std::pair<double, JobId>> ordered() const {
    std::vector<std::pair<double, JobId>> out(entries_.begin(),
                                              entries_.end());
    if (order_ == QueueOrder::kMaxFirst) {
      return {out.rbegin(), out.rend()};
    }
    return out;
  }

 private:
  QueueOrder order_;
  std::set<std::pair<double, JobId>> entries_;
  std::map<JobId, double> key_by_id_;
};

void expect_same_ordered_view(const ReadyQueue& queue,
                              const ReferenceQueue& ref) {
  std::vector<std::pair<double, JobId>> got;
  queue.for_each_ordered([&](const ReadyQueue::Entry& e) {
    got.emplace_back(e.key, e.id);
  });
  EXPECT_EQ(got, ref.ordered());
}

// Interleaved push/pop/erase-by-id/update-key stream against the reference.
// Keys come from a small discrete pool so duplicate keys (the tie-break
// cases) occur constantly.
/// `stride` spreads the 64 ids apart: with a stride of 16 they share at
/// most eight home slots of the index, so nearly every id probes. The index
/// starts at 16 slots and doubles inside its reservation as the queue
/// grows, re-inserting what it holds.
void run_differential(QueueOrder order, std::uint64_t seed,
                      JobId stride = 1) {
  constexpr JobId kIdBound = 64;
  Rng rng(seed);
  ReadyQueue queue(order);
  queue.reserve(static_cast<std::size_t>(kIdBound));
  const std::size_t reserved = queue.index_reserved();
  EXPECT_EQ(queue.index_slots(), 0u);  // reserved, not sized
  ReferenceQueue ref(order);

  const auto random_key = [&] {
    // 8 distinct values => with up to 64 live ids, ties are the norm.
    return 0.25 * static_cast<double>(rng.uniform_int(0, 7));
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    const JobId id =
        stride * static_cast<JobId>(rng.uniform_int(0, kIdBound - 1));
    if (op < 4) {  // push a currently-absent id
      if (!ref.contains(id)) {
        const double key = random_key();
        queue.push(key, id);
        ref.push(key, id);
      }
    } else if (op < 6) {  // pop
      if (!ref.empty()) {
        const auto expected = ref.pop();
        const auto got = queue.pop();
        ASSERT_EQ(got.key, expected.first) << "step " << step;
        ASSERT_EQ(got.id, expected.second) << "step " << step;
      }
    } else if (op < 8) {  // erase by id (present or absent)
      ASSERT_EQ(queue.erase(id), ref.erase(id)) << "step " << step;
    } else {  // update-key of a present id
      if (ref.contains(id)) {
        const double key = random_key();
        queue.update_key(id, key);
        ref.update_key(id, key);
      }
    }

    ASSERT_EQ(queue.size(), ref.size()) << "step " << step;
    ASSERT_EQ(queue.contains(id), ref.contains(id)) << "step " << step;
    if (ref.contains(id)) {
      ASSERT_EQ(queue.key_of(id), ref.key_of(id)) << "step " << step;
    }
    if (!ref.empty()) {
      ASSERT_EQ(queue.top().key, ref.top().first) << "step " << step;
      ASSERT_EQ(queue.top().id, ref.top().second) << "step " << step;
    }
    if (step % 512 == 0) expect_same_ordered_view(queue, ref);
  }

  // Drain fully: the tail of the pop sequence is where a broken sift shows.
  while (!ref.empty()) {
    const auto expected = ref.pop();
    const auto got = queue.pop();
    ASSERT_EQ(got.key, expected.first);
    ASSERT_EQ(got.id, expected.second);
  }
  EXPECT_TRUE(queue.empty());
  // However the ids collided, the index grew only inside its reservation,
  // never past twice the jobs queued at once.
  EXPECT_EQ(queue.index_reserved(), reserved);
  EXPECT_GE(queue.index_slots(), 16u);
  EXPECT_LE(queue.index_slots(), 2 * static_cast<std::size_t>(kIdBound));
}

TEST(ReadyQueueDifferential, MinFirstMatchesOrderedSet) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    run_differential(QueueOrder::kMinFirst, seed);
  }
}

TEST(ReadyQueueDifferential, MaxFirstMatchesGreaterOrderedSet) {
  for (std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    run_differential(QueueOrder::kMaxFirst, seed);
  }
}

TEST(ReadyQueueDifferential, CollidingIdsMatchOrderedSet) {
  for (std::uint64_t seed : {5u, 6u}) {
    run_differential(QueueOrder::kMinFirst, seed, 16);
    run_differential(QueueOrder::kMaxFirst, seed, 16);
  }
}

TEST(ReadyQueueTest, CollidingQueuedIdsLeaveSlotsUnchanged) {
  // Ids far apart that share a home slot (a spilled straggler thousands of
  // ids below the newest job) probe to free slots: neither the heap nor
  // the position index grows while the queue holds no more than its
  // pre-size (eight jobs fill the 16-slot first index half).
  ReadyQueue queue;
  queue.reserve(8);
  const std::uint64_t slots = queue.slots();
  const std::vector<JobId> ids = {0, 16, 4096, 32, 8192, 48, 3, 19};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    queue.push(static_cast<double>(ids.size() - i), ids[i]);
  }
  EXPECT_EQ(queue.slots(), slots);
  EXPECT_EQ(queue.index_slots(), 16u);
  for (const JobId id : ids) EXPECT_TRUE(queue.contains(id)) << id;
  EXPECT_FALSE(queue.contains(64));
  EXPECT_FALSE(queue.erase(64));
  // Erasing from the middle of a probe run keeps the rest reachable.
  EXPECT_TRUE(queue.erase(4096));
  EXPECT_FALSE(queue.contains(4096));
  for (const JobId id : {0, 16, 32, 8192, 48, 3, 19}) {
    EXPECT_TRUE(queue.contains(static_cast<JobId>(id))) << id;
  }
  queue.update_key(0, 0.5);
  EXPECT_EQ(queue.key_of(0), 0.5);
  // Pop order is the (key, id) order: ids were pushed with falling keys.
  std::vector<JobId> popped;
  while (!queue.empty()) popped.push_back(queue.pop().id);
  EXPECT_EQ(popped, (std::vector<JobId>{0, 19, 3, 48, 8192, 32, 16}));
  EXPECT_EQ(queue.index_slots(), 16u);
  EXPECT_EQ(queue.slots(), slots);
}

TEST(ReadyQueueDifferential, IndexGrowthWithinTheReservationKeepsPopOrder) {
  // reserve() writes nothing: the index starts at 16 slots and doubles,
  // re-inserting the queued entries, each time a push would leave it more
  // than half full — up to the reservation and never past it, so the
  // storage is never reallocated. Ids collide (stride 16, a straggler far
  // below), and every doubling must keep the ordered-set pop order.
  for (const QueueOrder order :
       {QueueOrder::kMinFirst, QueueOrder::kMaxFirst}) {
    constexpr std::size_t kBound = 256;
    ReadyQueue queue(order);
    ReferenceQueue ref(order);
    queue.reserve(kBound);
    const std::size_t reserved = queue.index_reserved();
    const std::uint64_t heap_slots = queue.slots();
    EXPECT_EQ(queue.index_slots(), 0u);
    EXPECT_GE(reserved, 2 * kBound);
    Rng rng(41);
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < kBound; ++i) {
      const JobId id = i == 0 ? 0 : 100000 + 16 * static_cast<JobId>(i);
      const double key = 0.5 * static_cast<double>(rng.uniform_int(0, 9));
      queue.push(key, id);
      ref.push(key, id);
      if (sizes.empty() || sizes.back() != queue.index_slots()) {
        sizes.push_back(queue.index_slots());
        expect_same_ordered_view(queue, ref);
      }
      ASSERT_LE(2 * queue.size(), queue.index_slots());
    }
    EXPECT_EQ(sizes,
              (std::vector<std::size_t>{16, 32, 64, 128, 256, 512}));
    EXPECT_EQ(queue.index_reserved(), reserved);
    EXPECT_EQ(queue.slots(), heap_slots);
    while (!ref.empty()) {
      const auto expected = ref.pop();
      const auto got = queue.pop();
      ASSERT_EQ(got.key, expected.first);
      ASSERT_EQ(got.id, expected.second);
    }
    // clear() refills only the index in use, which keeps its size.
    queue.clear();
    EXPECT_EQ(queue.index_slots(), 512u);
    EXPECT_EQ(queue.index_reserved(), reserved);
  }
}

TEST(ReadyQueueTest, TieBreakIsExactlyThePairOrder) {
  // All keys equal: kMinFirst must pop ids ascending (set<pair<>> order),
  // kMaxFirst descending (set<pair<>, greater<>> order).
  ReadyQueue min_q(QueueOrder::kMinFirst);
  ReadyQueue max_q(QueueOrder::kMaxFirst);
  for (JobId id : {7, 2, 9, 0, 5}) {
    min_q.push(1.5, id);
    max_q.push(1.5, id);
  }
  for (JobId expected : {0, 2, 5, 7, 9}) {
    EXPECT_EQ(min_q.pop().id, expected);
  }
  for (JobId expected : {9, 7, 5, 2, 0}) {
    EXPECT_EQ(max_q.pop().id, expected);
  }
}

TEST(ReadyQueueTest, EraseByIdRemovesTheRightEntryUnderDuplicateKeys) {
  ReadyQueue queue(QueueOrder::kMinFirst);
  queue.push(1.0, 3);
  queue.push(1.0, 1);
  queue.push(1.0, 2);
  EXPECT_TRUE(queue.erase(1));
  EXPECT_FALSE(queue.erase(1));  // absent now: tolerated no-op
  EXPECT_FALSE(queue.contains(1));
  EXPECT_EQ(queue.pop().id, 2);
  EXPECT_EQ(queue.pop().id, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(ReadyQueueTest, UpdateKeyResifts) {
  ReadyQueue queue(QueueOrder::kMinFirst);
  queue.push(1.0, 0);
  queue.push(2.0, 1);
  queue.push(3.0, 2);
  queue.update_key(2, 0.5);  // up
  EXPECT_EQ(queue.top().id, 2);
  queue.update_key(2, 9.0);  // down
  EXPECT_EQ(queue.top().id, 0);
  EXPECT_EQ(queue.key_of(2), 9.0);
}

TEST(ReadyQueueTest, ClearKeepsStorageAndPeak) {
  ReadyQueue queue;
  queue.reserve(128);
  for (JobId id = 0; id < 100; ++id) {
    queue.push(static_cast<double>(id), id);
  }
  const std::uint64_t slots = queue.slots();
  EXPECT_EQ(queue.peak(), 100u);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.peak(), 100u);  // lifetime high-water survives clear()
  EXPECT_EQ(queue.slots(), slots);
  // Storage really is reusable: refill without growing.
  for (JobId id = 0; id < 100; ++id) {
    queue.push(static_cast<double>(id), id);
  }
  EXPECT_EQ(queue.slots(), slots);
  EXPECT_EQ(queue.peak(), 100u);
}

TEST(ReadyQueueTest, PeakTracksHighWaterNotCurrentSize) {
  ReadyQueue queue;
  queue.push(1.0, 0);
  queue.push(2.0, 1);
  queue.push(3.0, 2);
  queue.pop();
  queue.pop();
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.peak(), 3u);
}

TEST(ReadyQueueTest, ForEachOrderedIsSafeAgainstSelfMutation) {
  // The V-Dover capacity-change path mutates the queue from inside the
  // ordered visit; the snapshot must keep iterating the pre-visit state.
  ReadyQueue queue(QueueOrder::kMinFirst);
  for (JobId id = 0; id < 8; ++id) {
    queue.push(static_cast<double>(id), id);
  }
  std::vector<JobId> visited;
  queue.for_each_ordered([&](const ReadyQueue::Entry& e) {
    visited.push_back(e.id);
    queue.erase(static_cast<JobId>((e.id + 1) % 8));
  });
  const std::vector<JobId> expected{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(visited, expected);
}

}  // namespace
}  // namespace sjs::sched
