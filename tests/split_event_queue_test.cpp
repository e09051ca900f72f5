// Tests for sim::SplitEventQueue, the two-sided event queue both engines run
// on: a seeded randomized differential against a std::priority_queue
// reference under the same (time, type, seq) total order, the adaptive
// seal() against std::sort on the input shapes it must handle, plus the
// peak, dead-event and purge accounting and the rewind a reset engine
// replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "sim/split_event_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/vec.hpp"

namespace sjs::sim {
namespace {

/// Same shape and order as the engines' events: type 0 (completion) is the
/// volatile type, 1 and 2 (expiry, release) the static ones.
struct TestEvent {
  double time;
  std::uint8_t type;
  std::uint64_t seq;

  bool operator>(const TestEvent& other) const {
    if (time != other.time) return time > other.time;
    if (type != other.type) return type > other.type;
    return seq > other.seq;
  }
  bool operator==(const TestEvent& other) const {
    return time == other.time && type == other.type && seq == other.seq;
  }
};

using Reference = std::priority_queue<TestEvent, std::vector<TestEvent>,
                                      std::greater<TestEvent>>;

/// Drives a queue and the reference through one randomized episode. Times
/// are small integers so equal-time ties across types are common. In batch
/// mode the static types are pushed up front and sealed; in live mode every
/// event, static types included, goes to the volatile heap after the seal.
void run_episode(SplitEventQueue<TestEvent>& queue, Rng& rng, bool live) {
  Reference reference;
  std::uint64_t seq = 0;
  auto push = [&](double time, std::uint8_t type, bool to_static) {
    const TestEvent event{time, type, seq++};
    if (to_static) {
      queue.push_static(event);
    } else {
      queue.push_volatile(event);
    }
    reference.push(event);
  };

  if (!live) {
    const int n = 20 + static_cast<int>(rng.below(200));
    for (int i = 0; i < n; ++i) {
      push(static_cast<double>(rng.below(50)),
           static_cast<std::uint8_t>(1 + rng.below(2)), true);
    }
  }
  queue.seal();
  EXPECT_THROW(queue.push_static(TestEvent{0.0, 1, seq}), CheckError);

  double now = 0.0;
  int pushes_left = 300;
  while (!reference.empty() || pushes_left > 0) {
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_EQ(queue.empty(), reference.empty());
    if (pushes_left > 0 && (reference.empty() || rng.bernoulli(0.5))) {
      --pushes_left;
      // Pushes never precede the clock, as in both engines.
      const double time = now + static_cast<double>(rng.below(10));
      const auto type =
          live ? static_cast<std::uint8_t>(rng.below(3)) : std::uint8_t{0};
      push(time, type, false);
      continue;
    }
    const TestEvent* front = queue.front();
    ASSERT_NE(front, nullptr);
    ASSERT_EQ(*front, reference.top());
    const TestEvent popped = queue.pop();
    ASSERT_EQ(popped, reference.top());
    reference.pop();
    now = popped.time;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.front(), nullptr);
}

TEST(SplitEventQueue, BatchMatchesPriorityQueue) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed, 1);
    SplitEventQueue<TestEvent> queue;
    run_episode(queue, rng, /*live=*/false);
  }
}

TEST(SplitEventQueue, LiveVolatileStaticTypesMatchPriorityQueue) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed, 2);
    SplitEventQueue<TestEvent> queue;
    run_episode(queue, rng, /*live=*/true);
  }
}

/// Pushes `events` onto a fresh queue's static side in the given order,
/// seals it, and checks that the cursor walk yields std::sort's order.
void expect_seal_sorts(const std::vector<TestEvent>& events) {
  SplitEventQueue<TestEvent> queue;
  for (const TestEvent& e : events) queue.push_static(e);
  queue.seal();
  std::vector<TestEvent> expected = events;
  std::sort(expected.begin(), expected.end(),
            [](const TestEvent& a, const TestEvent& b) { return b > a; });
  ASSERT_EQ(queue.size(), expected.size());
  for (const TestEvent& want : expected) {
    ASSERT_EQ(queue.pop(), want);
  }
  EXPECT_TRUE(queue.empty());
}

/// The engines' push pattern: per job, its release (type 2) then its expiry
/// (type 1), releases in canonical order.
std::vector<TestEvent> engine_like_events(Rng& rng, int jobs,
                                          std::uint64_t& seq) {
  std::vector<TestEvent> events;
  double release = 0.0;
  for (int j = 0; j < jobs; ++j) {
    release += rng.exponential_mean(0.05);
    events.push_back({release, 2, seq++});
    events.push_back({release + rng.uniform(0.05, 0.5), 1, seq++});
  }
  return events;
}

TEST(SplitEventQueue, SealSortsNearlySortedInput) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed, 5);
    std::uint64_t seq = 0;
    std::vector<TestEvent> events =
        engine_like_events(rng, 50 + static_cast<int>(rng.below(2000)), seq);
    // A few local swaps on top of the engines' pattern.
    for (int k = 0; k < 20; ++k) {
      const auto i = static_cast<std::size_t>(rng.below(events.size() - 1));
      std::swap(events[i], events[i + 1]);
    }
    expect_seal_sorts(events);
  }
}

TEST(SplitEventQueue, SealFallsBackOnReversedInput) {
  // Reversed input needs ~n²/2 moves, far past the n·bit_width(n) budget,
  // so seal() finishes with std::sort from a partially sorted prefix.
  for (const int n : {2, 3, 17, 500, 4096}) {
    std::vector<TestEvent> events;
    for (int i = 0; i < n; ++i) {
      events.push_back({static_cast<double>(n - i), 1,
                        static_cast<std::uint64_t>(i)});
    }
    expect_seal_sorts(events);
  }
}

TEST(SplitEventQueue, SealSortsCapacityChangesPushedLast) {
  // sim::Engine pushes the capacity breakpoints after every job's release
  // and expiry: a sorted run that must travel back across the whole side.
  for (const int breakpoints : {1, 8, 64, 512}) {
    Rng rng(static_cast<std::uint64_t>(breakpoints), 6);
    std::uint64_t seq = 0;
    std::vector<TestEvent> events = engine_like_events(rng, 1000, seq);
    const double horizon = events[events.size() - 2].time;
    for (int b = 1; b <= breakpoints; ++b) {
      events.push_back({horizon * b / (breakpoints + 1), 0, seq++});
    }
    expect_seal_sorts(events);
  }
}

TEST(SplitEventQueue, SealOrdersEqualTimesAcrossTypes) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed, 7);
    std::vector<TestEvent> events;
    const int n = 1 + static_cast<int>(rng.below(400));
    for (int i = 0; i < n; ++i) {
      events.push_back({static_cast<double>(rng.below(4)),
                        static_cast<std::uint8_t>(rng.below(3)),
                        static_cast<std::uint64_t>(i)});
    }
    expect_seal_sorts(events);
  }
}

TEST(SplitEventQueue, SealHandlesEmptyAndSingleton) {
  expect_seal_sorts({});
  expect_seal_sorts({TestEvent{3.0, 2, 0}});
  SplitEventQueue<TestEvent> queue;
  queue.seal();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.front(), nullptr);
}

TEST(SplitEventQueue, ClearReusesTheQueue) {
  Rng rng(7, 3);
  SplitEventQueue<TestEvent> queue;
  for (int episode = 0; episode < 6; ++episode) {
    // Leave events behind on both sides before clearing.
    queue.clear();
    queue.push_static(TestEvent{5.0, 1, 0});
    queue.seal();
    queue.push_volatile(TestEvent{1.0, 0, 1});
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.peak(), 0u);
    run_episode(queue, rng, /*live=*/episode % 2 == 1);
  }
}

TEST(SplitEventQueue, PeakAndDeadAccounting) {
  SplitEventQueue<TestEvent> queue;
  queue.push_static(TestEvent{3.0, 1, 0});
  queue.push_static(TestEvent{4.0, 2, 1});
  queue.seal();
  queue.push_volatile(TestEvent{2.0, 0, 2});
  EXPECT_EQ(queue.peak(), 0u);  // only track_peak() records it
  queue.track_peak();
  EXPECT_EQ(queue.peak(), 3u);

  queue.mark_dead();
  queue.mark_dead();
  queue.unmark_dead();
  EXPECT_EQ(queue.dead_count(), 1u);
  EXPECT_EQ(queue.dead_peak(), 2u);

  queue.purge([](const TestEvent& e) { return e.seq == 2; });
  EXPECT_EQ(queue.dead_count(), 0u);
  EXPECT_EQ(queue.volatile_size(), 0u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().seq, 0u);
  EXPECT_EQ(queue.pop().seq, 1u);
  EXPECT_EQ(queue.peak(), 3u);  // peaks survive pops; clear() resets them
  queue.clear();
  EXPECT_EQ(queue.peak(), 0u);
  EXPECT_EQ(queue.dead_peak(), 0u);
}

/// What one pass over a sealed queue observed.
struct Pass {
  std::vector<TestEvent> popped;
  std::uint64_t peak = 0;
  std::uint64_t dead_peak = 0;
  std::size_t dead_count = 0;
};

/// Pops a sealed queue to empty while pushing, killing and purging volatile
/// events the way an engine does. The same `seed` and `first_seq` drive the
/// same volatile traffic, as a rewound engine's next_seq_ would.
Pass drain(SplitEventQueue<TestEvent>& queue, std::uint64_t seed,
           std::uint64_t first_seq) {
  Rng rng(seed, 6);
  std::uint64_t seq = first_seq;
  Pass pass;
  while (!queue.empty()) {
    const TestEvent event = queue.pop();
    util::append(pass.popped, event);
    if (event.type == 0 && event.seq % 4 == 0) queue.unmark_dead();
    if (rng.bernoulli(0.4)) {
      queue.push_volatile(TestEvent{
          event.time + static_cast<double>(rng.below(5)), 0, seq++});
      queue.track_peak();
      // Every fourth completion dies before it pops, as a preempted one does.
      if ((seq - 1) % 4 == 0) queue.mark_dead();
    }
    if (queue.dead_count() > 8) {
      queue.purge(
          [](const TestEvent& e) { return e.type == 0 && e.seq % 4 == 0; });
    }
  }
  pass.peak = queue.peak();
  pass.dead_peak = queue.dead_peak();
  pass.dead_count = queue.dead_count();
  return pass;
}

TEST(SplitEventQueue, RewindReplaysTheFirstPass) {
  SplitEventQueue<TestEvent> queue;
  EXPECT_THROW(queue.rewind(), CheckError);  // nothing sealed yet

  Rng rng(13, 5);
  std::uint64_t seq = 0;
  for (int i = 0; i < 150; ++i) {
    queue.push_static(TestEvent{static_cast<double>(rng.below(40)),
                                static_cast<std::uint8_t>(1 + rng.below(2)),
                                seq++});
    queue.track_peak();
  }
  queue.seal();
  const std::uint64_t sealed_peak = queue.peak();
  const Pass first = drain(queue, 99, seq);
  ASSERT_GT(first.dead_peak, 0u);
  ASSERT_GT(first.popped.size(), 150u);

  for (int round = 0; round < 3; ++round) {
    queue.rewind();
    EXPECT_EQ(queue.size(), 150u);
    EXPECT_EQ(queue.volatile_size(), 0u);
    EXPECT_EQ(queue.peak(), sealed_peak);
    EXPECT_EQ(queue.dead_count(), 0u);
    EXPECT_EQ(queue.dead_peak(), 0u);
    const Pass again = drain(queue, 99, seq);
    EXPECT_EQ(again.popped, first.popped);
    EXPECT_EQ(again.peak, first.peak);
    EXPECT_EQ(again.dead_peak, first.dead_peak);
    EXPECT_EQ(again.dead_count, first.dead_count);
  }

  // A rewind mid-pass drops the volatile events and restarts the walk.
  queue.rewind();
  queue.pop();
  queue.push_volatile(TestEvent{0.0, 0, seq});
  queue.rewind();
  EXPECT_EQ(queue.size(), 150u);
  EXPECT_EQ(drain(queue, 99, seq).popped, first.popped);
}

TEST(SplitEventQueue, PurgeKeepsTheMergedOrder) {
  Rng rng(11, 4);
  SplitEventQueue<TestEvent> queue;
  Reference reference;
  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    const TestEvent event{static_cast<double>(rng.below(30)),
                          static_cast<std::uint8_t>(rng.below(3)), seq++};
    queue.push_volatile(event);
    if (event.seq % 3 != 0) reference.push(event);
  }
  queue.seal();
  queue.purge([](const TestEvent& e) { return e.seq % 3 == 0; });
  while (!reference.empty()) {
    ASSERT_EQ(queue.pop(), reference.top());
    reference.pop();
  }
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// first_live_time: the serving loop's wake-up bound.

/// An event carrying what the engines' dead-event predicates read: `key` is
/// the job (or, for a fleet completion, the server) and `stamp` the
/// dispatch epoch of a completion or the id of a timer.
struct KeyedEvent {
  double time;
  std::uint8_t type;
  std::uint64_t seq;
  std::size_t key = 0;
  std::uint64_t stamp = 0;

  bool operator>(const KeyedEvent& other) const {
    if (time != other.time) return time > other.time;
    if (type != other.type) return type > other.type;
    return seq > other.seq;
  }
};

/// The state both predicates read, drawn at random per episode.
struct DeadState {
  std::vector<bool> resolved;          // per job: has an outcome or retired
  std::vector<std::uint64_t> epochs;   // per server (one on sim::Engine)
  std::vector<bool> cancelled;         // per timer id
};

// sim::Engine's rule: 0 completion, 1 expiry, 2 capacity change, 3 release,
// 4 timer.
bool engine_dead(const DeadState& w, const KeyedEvent& e) {
  switch (e.type) {
    case 0:
      return e.stamp != w.epochs[0];
    case 1:
      return w.resolved[e.key];
    case 4:
      return w.cancelled[e.stamp] || w.resolved[e.key];
    default:
      return false;
  }
}

// cloud::MultiEngine's rule: 0 completion (key = server), 1 expiry,
// 2 release.
bool fleet_dead(const DeadState& w, const KeyedEvent& e) {
  if (e.type == 0) return e.stamp != w.epochs[e.key];
  return e.type == 1 && w.resolved[e.key];
}

struct LiveFrontTally {
  int exact = 0;      // the result was the first live event's time
  int bounded = 0;    // a frontier ran out: the result is a lower bound
  int all_dead = 0;   // nothing live pending: +infinity
};

/// One random episode: a sealed static side partly consumed, a heap of
/// volatile events, a random dead state with dead fraction `dead_p`. Checks
/// front() <= first_live_time <= the brute-force first live time, and
/// exactness whenever fewer dead events than the frontier can hold precede
/// the first live one.
void check_live_front(Rng& rng, bool fleet, double dead_p,
                      LiveFrontTally& tally) {
  constexpr std::size_t kJobs = 40;
  constexpr std::size_t kServers = 4;
  constexpr std::size_t kTimers = 64;
  DeadState w;
  w.resolved.resize(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) w.resolved[j] = rng.bernoulli(dead_p);
  w.epochs.resize(kServers);
  for (auto& epoch : w.epochs) epoch = 1 + rng.below(3);
  w.cancelled.resize(kTimers);
  for (std::size_t t = 0; t < kTimers; ++t) {
    w.cancelled[t] = rng.bernoulli(dead_p);
  }
  const auto is_dead = [&](const KeyedEvent& e) {
    return fleet ? fleet_dead(w, e) : engine_dead(w, e);
  };

  SplitEventQueue<KeyedEvent> queue;
  std::vector<KeyedEvent> pending;  // the brute-force reference
  std::uint64_t seq = 0;
  const auto make = [&](bool volatile_side) {
    KeyedEvent e{static_cast<double>(rng.below(60)), 0, seq++};
    // Releases and capacity changes are never dead: draw them less often
    // as the dead fraction rises, so long dead runs come up.
    static constexpr std::uint8_t kCanDie[] = {0, 1, 4};
    if (rng.bernoulli(dead_p)) {
      e.type = kCanDie[rng.below(fleet ? 2 : 3)];
    } else {
      e.type = static_cast<std::uint8_t>(rng.below(fleet ? 3 : 5));
    }
    if (!volatile_side && e.type == 0) e.type = 1;
    if (!volatile_side && e.type == 4) e.type = 3;
    e.key = rng.below(kJobs);
    if (e.type == 0) {
      const std::size_t server = fleet ? rng.below(kServers) : 0;
      if (fleet) e.key = server;
      // A completion of the current dispatch, or of an older one.
      e.stamp = rng.bernoulli(dead_p) ? w.epochs[server] - 1
                                      : w.epochs[server];
    } else if (e.type == 4) {
      e.stamp = rng.below(kTimers);
    }
    return e;
  };

  const int statics = static_cast<int>(rng.below(80));
  for (int i = 0; i < statics; ++i) queue.push_static(make(false));
  queue.seal();
  const int heaped = static_cast<int>(rng.below(120));
  for (int i = 0; i < heaped; ++i) {
    const KeyedEvent e = make(true);
    queue.push_volatile(e);
  }
  // Consume part of the merged sequence; what is left is the reference.
  for (int i = static_cast<int>(rng.below(20)); i > 0 && !queue.empty(); --i) {
    queue.pop();
  }
  // Rebuild the reference from what the queue would still pop.
  {
    SplitEventQueue<KeyedEvent> copy = queue;
    while (!copy.empty()) pending.push_back(copy.pop());
  }

  const double result = queue.first_live_time(is_dead);
  const KeyedEvent* front = queue.front();
  const double raw = front ? front->time
                           : std::numeric_limits<double>::infinity();
  double truth = std::numeric_limits<double>::infinity();
  std::size_t dead_before = 0;  // pending is in pop order
  for (const KeyedEvent& e : pending) {
    if (!is_dead(e)) {
      truth = e.time;
      break;
    }
    ++dead_before;
  }
  ASSERT_LE(raw, result);
  ASSERT_LE(result, truth);
  if (dead_before + 1 < SplitEventQueue<KeyedEvent>::kLiveFrontier) {
    ASSERT_EQ(result, truth) << "dead before the first live: " << dead_before;
  }
  if (truth == std::numeric_limits<double>::infinity() &&
      result == truth) {
    ++tally.all_dead;
  } else if (result == truth) {
    ++tally.exact;
  } else {
    ++tally.bounded;
  }
}

TEST(SplitEventQueue, FirstLiveTimeMatchesABruteForceScan) {
  for (const bool fleet : {false, true}) {
    SCOPED_TRACE(fleet ? "fleet predicate" : "engine predicate");
    LiveFrontTally tally;
    std::uint64_t seed = 0;
    for (const double dead_p : {0.0, 0.3, 0.7, 0.95, 1.0}) {
      for (int episode = 0; episode < 400; ++episode) {
        Rng rng(++seed, fleet ? 7 : 6);
        check_live_front(rng, fleet, dead_p, tally);
        if (HasFatalFailure()) return;
      }
    }
    // Every regime came up: exact answers, frontier overflows, and queues
    // holding only dead events.
    EXPECT_GT(tally.exact, 0);
    EXPECT_GT(tally.bounded, 0);
    EXPECT_GT(tally.all_dead, 0);
  }
}

TEST(SplitEventQueue, FirstLiveTimeOverflowReturnsTheDeadEventItStoppedAt) {
  // 40 dead heap events at times 0..39 ahead of one live one at 100: the
  // best-first walk runs out of frontier after about 16 and answers with the
  // time of the dead event it stopped at, a lower bound on 100.
  SplitEventQueue<TestEvent> queue;
  queue.seal();
  for (std::uint64_t i = 0; i < 40; ++i) {
    queue.push_volatile(TestEvent{static_cast<double>(i), 0, i});
  }
  queue.push_volatile(TestEvent{100.0, 1, 40});
  const auto dead = [](const TestEvent& e) { return e.type == 0; };
  const double bound = queue.first_live_time(dead);
  EXPECT_GE(bound, 0.0);
  EXPECT_LT(bound, 100.0);
  // With few enough dead ahead of it the answer is exact.
  for (int i = 0; i < 30; ++i) queue.pop();
  EXPECT_EQ(queue.first_live_time(dead), 100.0);
  // A live static event ahead of the heap ends the walk.
  SplitEventQueue<TestEvent> mixed;
  mixed.push_static(TestEvent{5.0, 2, 0});
  mixed.seal();
  mixed.push_volatile(TestEvent{1.0, 0, 1});
  mixed.push_volatile(TestEvent{7.0, 1, 2});
  EXPECT_EQ(mixed.first_live_time(dead), 5.0);
  // Nothing live at all: +infinity.
  SplitEventQueue<TestEvent> none;
  none.seal();
  none.push_volatile(TestEvent{3.0, 0, 0});
  EXPECT_EQ(none.first_live_time(dead),
            std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace sjs::sim
