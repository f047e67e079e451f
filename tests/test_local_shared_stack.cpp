#include "dht/local_shared_stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dht/aggregating_store.hpp"

namespace {

using namespace mera::dht;
using namespace mera::pgas;

TEST(LocalSharedStack, ConcurrentBatchesLandDisjointly) {
  const int nranks = 8;
  const std::size_t batches_per_rank = 50, batch = 16;
  Runtime rt(Topology(nranks, 4));
  std::vector<LocalSharedStack<std::uint64_t>> stacks(1);
  stacks[0].allocate(0, nranks * batches_per_rank * batch);

  rt.run([&](Rank& r) {
    std::vector<std::uint64_t> payload(batch);
    for (std::size_t b = 0; b < batches_per_rank; ++b) {
      // Tag every element with (rank, batch, i) so overwrites are detectable.
      for (std::size_t i = 0; i < batch; ++i)
        payload[i] = (static_cast<std::uint64_t>(r.id()) << 32) |
                     (b << 8) | i;
      stacks[0].push_batch(r, payload);
    }
  });

  const auto view = stacks[0].take();
  ASSERT_EQ(view.size(), nranks * batches_per_rank * batch);
  // All tags distinct => no overwritten slots.
  std::vector<std::uint64_t> sorted(view.begin(), view.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(LocalSharedStack, BatchesAreContiguous) {
  Runtime rt(Topology(4, 2));
  std::vector<LocalSharedStack<int>> stacks(1);
  stacks[0].allocate(0, 4 * 10);
  rt.run([&](Rank& r) {
    std::vector<int> payload(10, r.id());
    stacks[0].push_batch(r, payload);
  });
  const auto view = stacks[0].take();
  ASSERT_EQ(view.size(), 40u);
  // Each rank's 10 entries occupy one contiguous run.
  for (std::size_t i = 0; i < view.size(); i += 10)
    for (std::size_t j = i; j < i + 10; ++j) EXPECT_EQ(view[j], view[i]);
}

TEST(LocalSharedStack, OverflowThrows) {
  Runtime rt(Topology(1, 1));
  std::vector<LocalSharedStack<int>> stacks(1);
  stacks[0].allocate(0, 5);
  EXPECT_THROW(rt.run([&](Rank& r) {
                 std::vector<int> payload(6, 1);
                 stacks[0].push_batch(r, payload);
               }),
               std::logic_error);
}

TEST(LocalSharedStack, EmptyBatchIsFreeNoop) {
  Runtime rt(Topology(2, 2));
  std::vector<LocalSharedStack<int>> stacks(1);
  stacks[0].allocate(0, 4);
  rt.run([&](Rank& r) {
    stacks[0].push_batch(r, {});
    EXPECT_EQ(r.stats().atomics, 0u);
  });
  EXPECT_EQ(stacks[0].take().size(), 0u);
}

TEST(LocalSharedStack, TakeReturnsTheLandedPrefixAndEmptiesTheStack) {
  Runtime rt(Topology(2, 2));
  std::vector<LocalSharedStack<int>> stacks(1);
  stacks[0].allocate(0, 10);
  rt.run([&](Rank& r) {
    if (r.id() == 1) stacks[0].push_batch(r, std::vector<int>{1, 2, 3, 4, 5, 6});
  });
  EXPECT_EQ(stacks[0].take(), (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(stacks[0].take().empty());
  // The emptied stack takes no more entries until it is allocated again.
  EXPECT_THROW(rt.run([&](Rank& r) {
                 if (r.id() == 1) stacks[0].push_batch(r, std::vector<int>{7});
               }),
               std::logic_error);
}

TEST(AggregatingStore, FlushesExactlyAtS) {
  const int nranks = 2;
  Runtime rt(Topology(nranks, 2));
  std::vector<LocalSharedStack<int>> stacks(nranks);
  for (int i = 0; i < nranks; ++i)
    stacks[static_cast<std::size_t>(i)].allocate(i, 1000);

  rt.run([&](Rank& r) {
    if (r.id() != 0) return;
    AggregatingStore<int> agg(nranks, /*S=*/10, stacks);
    // 9 entries: nothing flushed yet (still buffered).
    for (int i = 0; i < 9; ++i) agg.push(r, 1, i);
    EXPECT_EQ(r.stats().atomics, 0u);
    EXPECT_EQ(r.stats().remote_msgs(), 0u);
    // 10th entry triggers exactly one atomic + one aggregate message.
    agg.push(r, 1, 9);
    EXPECT_EQ(r.stats().atomics, 1u);
    EXPECT_EQ(r.stats().remote_msgs(), 1u);
    // Partial leftovers only leave on flush_all.
    agg.push(r, 1, 10);
    agg.flush_all(r);
    EXPECT_EQ(r.stats().atomics, 2u);
  });
  EXPECT_EQ(stacks[1].take().size(), 11u);
}

TEST(AggregatingStore, SFoldMessageReduction) {
  // The headline claim of Section III-A: S-fold fewer messages and atomics
  // than one-message-per-entry.
  const int nranks = 4;
  const std::size_t S = 50, per_rank = 1000;
  Runtime rt(Topology(nranks, 2));
  std::vector<LocalSharedStack<std::uint32_t>> stacks(nranks);
  for (int i = 0; i < nranks; ++i)
    stacks[static_cast<std::size_t>(i)].allocate(i, nranks * per_rank);

  std::vector<std::uint64_t> msgs(nranks);
  rt.run([&](Rank& r) {
    AggregatingStore<std::uint32_t> agg(nranks, S, stacks);
    for (std::size_t i = 0; i < per_rank; ++i)
      agg.push(r, static_cast<int>(i % nranks), static_cast<std::uint32_t>(i));
    agg.flush_all(r);
    msgs[static_cast<std::size_t>(r.id())] =
        r.stats().remote_msgs() + r.stats().local_ops;
  });
  for (int rk = 0; rk < nranks; ++rk) {
    // ceil(1000/4 dest / 50) = 5 flushes per destination, 4 destinations.
    EXPECT_LE(msgs[static_cast<std::size_t>(rk)], per_rank / S + nranks);
  }
}

}  // namespace
