#include "core/target_store.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace {

using namespace mera::core;
using mera::pgas::Rank;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

std::vector<SeqRecord> make_targets(int n, std::uint64_t seed,
                                    std::size_t min_len = 100,
                                    std::size_t max_len = 400) {
  std::mt19937_64 rng(seed);
  std::vector<SeqRecord> recs;
  for (int i = 0; i < n; ++i) {
    SeqRecord r;
    r.name = 't';
    r.name += std::to_string(i);
    r.seq.resize(min_len + rng() % (max_len - min_len));
    for (auto& c : r.seq) c = "ACGT"[rng() & 3u];
    recs.push_back(std::move(r));
  }
  return recs;
}

void build(Runtime& rt, TargetStore& store,
           const std::vector<SeqRecord>& targets) {
  rt.run([&](Rank& r) {
    const std::size_t n = targets.size();
    const auto me = static_cast<std::size_t>(r.id());
    const auto p = static_cast<std::size_t>(r.nranks());
    std::vector<SeqRecord> mine(targets.begin() + static_cast<std::ptrdiff_t>(n * me / p),
                                targets.begin() + static_cast<std::ptrdiff_t>(n * (me + 1) / p));
    store.add_local_targets(r, std::move(mine));
    store.finish_construction(r);
  });
}

TEST(TargetStore, GlobalIdsAreBlockedAndComplete) {
  const auto targets = make_targets(23, 1);
  Runtime rt(Topology(5, 5));
  TargetStore store(5, {21, 1u << 30});
  build(rt, store, targets);

  ASSERT_EQ(store.num_targets(), targets.size());
  for (std::uint32_t gid = 0; gid < store.num_targets(); ++gid) {
    const Target& t = store.target_unsync(gid);
    EXPECT_EQ(t.name, targets[gid].name);
    EXPECT_EQ(t.seq.to_string(), targets[gid].seq);
  }
}

TEST(TargetStore, OwnershipMatchesLocalRanges) {
  const auto targets = make_targets(17, 2);
  Runtime rt(Topology(4, 2));
  TargetStore store(4, {21, 1u << 30});
  build(rt, store, targets);

  std::size_t total = 0;
  for (int rank = 0; rank < 4; ++rank) {
    const auto [lo, hi] = store.local_target_range(rank);
    total += hi - lo;
    for (std::uint32_t gid = lo; gid < hi; ++gid)
      EXPECT_EQ(store.owner_of_target(gid), rank);
  }
  EXPECT_EQ(total, targets.size());
}

TEST(TargetStore, FetchChargesRemoteOwnersOnly) {
  const auto targets = make_targets(8, 3);
  Runtime rt(Topology(4, 2));
  TargetStore store(4, {21, 1u << 30});
  build(rt, store, targets);

  rt.run([&](Rank& r) {
    if (r.id() != 0) return;
    const auto [lo, hi] = store.local_target_range(0);
    ASSERT_GT(hi, lo);
    const auto base_msgs = r.stats().remote_msgs();
    (void)store.fetch_target(r, lo);  // own target: free
    EXPECT_EQ(r.stats().remote_msgs(), base_msgs);
    const auto [rlo, rhi] = store.local_target_range(3);
    ASSERT_GT(rhi, rlo);
    (void)store.fetch_target(r, rlo);  // remote: one message
    EXPECT_EQ(r.stats().remote_msgs(), base_msgs + 1);
    // Transfer size is the packed payload (4x compression).
    EXPECT_EQ(r.stats().remote_bytes(),
              store.target_transfer_bytes(rlo));
  });
}

TEST(TargetStore, FragmentsTileEachTargetWithOverlap) {
  const auto targets = make_targets(6, 4, 300, 900);
  const int k = 21;
  const std::size_t flen = 128;
  Runtime rt(Topology(3, 3));
  TargetStore store(3, {k, flen});
  build(rt, store, targets);

  ASSERT_GT(store.num_fragments(), store.num_targets());
  std::vector<std::size_t> covered(targets.size(), 0);
  for (std::uint32_t fid = 0; fid < store.num_fragments(); ++fid) {
    const Fragment& f = store.fragment_unsync(fid);
    const Target& t = store.target_unsync(f.parent_target);
    EXPECT_LE(f.parent_offset + f.length, t.seq.size());
    EXPECT_TRUE(f.single_copy_seeds.load());
    covered[f.parent_target] =
        std::max<std::size_t>(covered[f.parent_target],
                              f.parent_offset + f.length);
  }
  for (std::uint32_t gid = 0; gid < store.num_targets(); ++gid)
    EXPECT_EQ(covered[gid], store.target_unsync(gid).seq.size());
}

TEST(TargetStore, FragmentationOffYieldsOneFragmentPerTarget) {
  const auto targets = make_targets(9, 5);
  Runtime rt(Topology(3, 3));
  TargetStore store(3, {21, std::numeric_limits<std::size_t>::max()});
  build(rt, store, targets);
  EXPECT_EQ(store.num_fragments(), store.num_targets());
  for (std::uint32_t fid = 0; fid < store.num_fragments(); ++fid) {
    const Fragment& f = store.fragment_unsync(fid);
    EXPECT_EQ(f.parent_offset, 0u);
    EXPECT_EQ(f.length, store.target_unsync(f.parent_target).seq.size());
  }
}

TEST(TargetStore, ClearSingleCopyIsOneSidedAndVisible) {
  const auto targets = make_targets(8, 6);
  Runtime rt(Topology(4, 2));
  TargetStore store(4, {21, 1u << 30});
  build(rt, store, targets);

  rt.run([&](Rank& r) {
    // Every rank clears one remote fragment's flag.
    const std::uint32_t victim =
        (store.local_fragment_range((r.id() + 1) % 4).first);
    store.clear_single_copy(r, victim);
    r.barrier();
    EXPECT_FALSE(store.fragment_unsync(victim).single_copy_seeds.load());
  });
  EXPECT_LT(store.single_copy_fraction(), 1.0);
  EXPECT_GT(store.single_copy_fraction(), 0.0);
}

TEST(TargetStore, UnbalancedDepositsStillWork) {
  // All targets land on one rank (e.g. a tiny input file).
  const auto targets = make_targets(5, 7);
  Runtime rt(Topology(4, 4));
  TargetStore store(4, {21, 1u << 30});
  rt.run([&](Rank& r) {
    if (r.id() == 2) store.add_local_targets(r, targets);
    store.finish_construction(r);
  });
  EXPECT_EQ(store.num_targets(), 5u);
  EXPECT_EQ(store.owner_of_target(0), 2);
  const auto [lo, hi] = store.local_target_range(0);
  EXPECT_EQ(lo, hi);  // rank 0 owns nothing
}

TEST(TargetStore, RejectsBadOptions) {
  EXPECT_THROW(TargetStore(2, {0, 100}), std::invalid_argument);
  EXPECT_THROW(TargetStore(2, {21, 10}), std::invalid_argument);
}

}  // namespace
