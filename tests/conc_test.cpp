// Tests for src/conc/: the bounded channel's full contract (capacity
// backpressure, FIFO delivery, the close→drain state machine, poll(2) wakeup
// composition), the eventfd WakeFd, the ShardSet lifecycle, and the pinned
// job→shard hash. The multi-producer stress case is the one the TSan CI
// config is aimed at.
#include <gtest/gtest.h>

#include <poll.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "conc/channel.hpp"
#include "conc/shard_hash.hpp"
#include "conc/shard_set.hpp"
#include "conc/wake_fd.hpp"

namespace {

using sjs::conc::Channel;
using sjs::conc::PopStatus;
using sjs::conc::SendStatus;

bool wake_readable(int fd, int timeout_ms = 0) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1 && (pfd.revents & POLLIN) != 0;
}

// ---------------------------------------------------------------------------
// Capacity and backpressure
// ---------------------------------------------------------------------------

TEST(ChannelTest, CapacityBoundsOutstandingMessages) {
  Channel<int> ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ch.try_send(i), SendStatus::kOk);
  EXPECT_EQ(ch.try_send(99), SendStatus::kFull);

  int v = -1;
  EXPECT_EQ(ch.try_pop(v), PopStatus::kOk);
  EXPECT_EQ(v, 0);  // FIFO
  EXPECT_EQ(ch.try_send(4), SendStatus::kOk);  // slot freed
  for (int expect : {1, 2, 3, 4}) {
    EXPECT_EQ(ch.try_pop(v), PopStatus::kOk);
    EXPECT_EQ(v, expect);
  }
  EXPECT_EQ(ch.try_pop(v), PopStatus::kEmpty);  // open, not drained
}

// ---------------------------------------------------------------------------
// Close / drain state machine
// ---------------------------------------------------------------------------

TEST(ChannelTest, CloseWhileFullKeepsEverythingDeliverable) {
  Channel<int> ch(3);
  for (int i = 0; i < 3; ++i) ASSERT_EQ(ch.try_send(i), SendStatus::kOk);
  ch.close();
  EXPECT_FALSE(ch.drained());
  EXPECT_EQ(ch.try_send(99), SendStatus::kClosed);

  int v = -1;
  for (int expect : {0, 1, 2}) {
    EXPECT_EQ(ch.try_pop(v), PopStatus::kOk);
    EXPECT_EQ(v, expect);
  }
  EXPECT_EQ(ch.try_pop(v), PopStatus::kDrained);
  EXPECT_TRUE(ch.drained());
}

TEST(ChannelTest, EmptyClosedChannelIsDrainedImmediately) {
  Channel<int> ch(4);
  ch.close();
  ch.close();  // idempotent
  int v = -1;
  EXPECT_EQ(ch.try_pop(v), PopStatus::kDrained);
  EXPECT_TRUE(ch.drained());
}

// ---------------------------------------------------------------------------
// Wakeup composition with poll(2)
// ---------------------------------------------------------------------------

TEST(ChannelTest, WakeFdSignalsOnCommitAndCoalesces) {
  Channel<int> ch(16);
  EXPECT_FALSE(wake_readable(ch.wake_fd()));
  for (int i = 0; i < 5; ++i) ASSERT_EQ(ch.try_send(i), SendStatus::kOk);
  EXPECT_TRUE(wake_readable(ch.wake_fd()));

  // Consumer protocol: drain wakeups FIRST, then pop until kEmpty.
  ch.drain_wakeups();
  EXPECT_FALSE(wake_readable(ch.wake_fd()));
  int v = -1;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ch.try_pop(v), PopStatus::kOk);
  EXPECT_EQ(ch.try_pop(v), PopStatus::kEmpty);

  // The next send re-signals even though earlier ones were coalesced.
  ASSERT_EQ(ch.try_send(42), SendStatus::kOk);
  EXPECT_TRUE(wake_readable(ch.wake_fd()));
}

TEST(ChannelTest, DrainPendingWakeupsDrainsOnlyASignalledChannel) {
  Channel<int> ch(4);
  ch.drain_pending_wakeups();  // nothing pending: no read, no block
  EXPECT_FALSE(wake_readable(ch.wake_fd()));
  ASSERT_EQ(ch.try_send(1), SendStatus::kOk);
  EXPECT_TRUE(wake_readable(ch.wake_fd()));
  ch.drain_pending_wakeups();
  EXPECT_FALSE(wake_readable(ch.wake_fd()));
  int v = -1;
  EXPECT_EQ(ch.try_pop(v), PopStatus::kOk);
  // Re-armed: the next send signals again.
  ASSERT_EQ(ch.try_send(2), SendStatus::kOk);
  EXPECT_TRUE(wake_readable(ch.wake_fd()));
}

TEST(ChannelTest, CloseSignalsTheConsumer) {
  Channel<int> ch(4);
  ch.drain_wakeups();
  ch.close();
  EXPECT_TRUE(wake_readable(ch.wake_fd()));  // a parked consumer must wake
}

TEST(WakeFdTest, OneDrainConsumesEverySignal) {
  sjs::conc::WakeFd wake;
  EXPECT_FALSE(wake_readable(wake.fd()));
  for (int i = 0; i < 5; ++i) wake.signal();
  EXPECT_TRUE(wake_readable(wake.fd()));
  wake.drain();  // one read(2) zeroes the eventfd counter
  EXPECT_FALSE(wake_readable(wake.fd()));
  wake.drain();  // nothing pending: a no-op, not a block
  wake.signal();
  EXPECT_TRUE(wake_readable(wake.fd()));
}

// ---------------------------------------------------------------------------
// Multi-producer stress (the TSan target)
// ---------------------------------------------------------------------------

TEST(ChannelTest, MultiProducerStressDeliversEverythingInProducerOrder) {
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 2000;
  Channel<std::uint64_t> ch(64);  // small: forces constant kFull backoff

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t msg =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (ch.try_send(msg) != SendStatus::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::uint32_t> next(kProducers, 0);
  std::uint64_t received = 0;
  const std::uint64_t total =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  std::uint64_t msg = 0;
  while (received < total) {
    const PopStatus st = ch.try_pop(msg);
    if (st != PopStatus::kOk) {
      if (wake_readable(ch.wake_fd(), 50)) ch.drain_wakeups();
      continue;
    }
    const auto p = static_cast<int>(msg >> 32);
    const auto i = static_cast<std::uint32_t>(msg & 0xffffffffu);
    ASSERT_EQ(i, next[p]) << "producer " << p << " reordered";
    ++next[p];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  ch.close();
  EXPECT_EQ(ch.try_pop(msg), PopStatus::kDrained);
}

// ---------------------------------------------------------------------------
// ShardSet lifecycle
// ---------------------------------------------------------------------------

TEST(ShardSetTest, RunsEveryBodyWithItsIndexAndJoinsInOrder) {
  constexpr std::size_t kShards = 4;
  std::vector<Channel<int>*> inputs;
  std::vector<std::unique_ptr<Channel<int>>> owned;
  std::vector<int> sums(kShards, 0);
  for (std::size_t k = 0; k < kShards; ++k) {
    owned.push_back(std::make_unique<Channel<int>>(8));
    inputs.push_back(owned.back().get());
  }

  sjs::conc::ShardSet shards;
  EXPECT_FALSE(shards.joined());
  shards.spawn(kShards, [&](std::size_t k) {
    int v = 0;
    while (true) {
      const PopStatus st = inputs[k]->try_pop(v);
      if (st == PopStatus::kOk) {
        sums[k] += v;
      } else if (st == PopStatus::kDrained) {
        return;
      } else if (wake_readable(inputs[k]->wake_fd(), 50)) {
        inputs[k]->drain_wakeups();
      }
    }
  });
  EXPECT_EQ(shards.size(), kShards);

  for (std::size_t k = 0; k < kShards; ++k) {
    for (int i = 1; i <= static_cast<int>(k) + 1; ++i) {
      ASSERT_EQ(inputs[k]->try_send(i), SendStatus::kOk);
    }
  }
  // The drain contract: close inputs in shard order, then join in order.
  for (std::size_t k = 0; k < kShards; ++k) inputs[k]->close();
  shards.join();
  EXPECT_TRUE(shards.joined());
  shards.join();  // idempotent

  for (std::size_t k = 0; k < kShards; ++k) {
    const int n = static_cast<int>(k) + 1;
    EXPECT_EQ(sums[k], n * (n + 1) / 2) << "shard " << k;
  }
}

// ---------------------------------------------------------------------------
// Shard hash: pinned golden values (format contract)
// ---------------------------------------------------------------------------

TEST(ShardHashTest, SplitMix64GoldenValues) {
  // Pinned: changing any of these is a format break for multi-shard journal
  // sets (the ticket→shard map would silently re-partition old sessions).
  EXPECT_EQ(sjs::conc::splitmix64(0), 16294208416658607535ULL);
  EXPECT_EQ(sjs::conc::splitmix64(1), 10451216379200822465ULL);
  EXPECT_EQ(sjs::conc::splitmix64(2), 10905525725756348110ULL);
  EXPECT_EQ(sjs::conc::splitmix64(3), 2092789425003139053ULL);
  EXPECT_EQ(sjs::conc::splitmix64(42), 13679457532755275413ULL);
  EXPECT_EQ(sjs::conc::splitmix64(1000000), 7497680628364559847ULL);
  EXPECT_EQ(sjs::conc::splitmix64(0xffffffffffffffffULL),
            16490336266968443936ULL);
}

TEST(ShardHashTest, ShardOfGoldenValues) {
  using sjs::conc::shard_of;
  EXPECT_EQ(shard_of(0, 4), 3u);
  EXPECT_EQ(shard_of(1, 4), 1u);
  EXPECT_EQ(shard_of(2, 4), 2u);
  EXPECT_EQ(shard_of(3, 4), 1u);
  EXPECT_EQ(shard_of(42, 4), 1u);
  EXPECT_EQ(shard_of(1000000, 4), 3u);
  EXPECT_EQ(shard_of(0, 7), 2u);
  EXPECT_EQ(shard_of(42, 7), 5u);
  // Degenerate planes route everything to shard 0.
  for (std::uint64_t t : {0ULL, 1ULL, 99ULL}) {
    EXPECT_EQ(shard_of(t, 1), 0u);
    EXPECT_EQ(shard_of(t, 0), 0u);
  }
}

TEST(ShardHashTest, ConsecutiveTicketsSpreadEvenly) {
  // The avalanche property the routing relies on: a dense ticket burst does
  // not stripe. 10k tickets over 4 shards, each within 5% of uniform.
  std::size_t counts[4] = {0, 0, 0, 0};
  for (std::uint64_t t = 0; t < 10000; ++t) {
    ++counts[sjs::conc::shard_of(t, 4)];
  }
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GT(counts[k], 2100u) << "shard " << k;
    EXPECT_LT(counts[k], 2900u) << "shard " << k;
  }
}

}  // namespace
