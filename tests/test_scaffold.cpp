#include "core/scaffold.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace {

using namespace mera::core;

AlignmentRecord rec(std::uint32_t target, std::size_t t_begin,
                    std::size_t t_end, bool reverse, int score = 100) {
  AlignmentRecord a;
  a.target_id = target;
  a.t_begin = t_begin;
  a.t_end = t_end;
  a.reverse = reverse;
  a.score = score;
  return a;
}

TEST(Scaffolder, SingleLinkFromConcordantPairs) {
  // Contigs of length 1000; insert 400. A pair: forward mate near the end
  // of contig 0, reverse mate near the start of contig 1.
  Scaffolder sc({1000, 1000}, {.insert_mean = 400, .min_links = 3});
  std::vector<MatePair> pairs;
  for (int i = 0; i < 5; ++i) {
    MatePair p;
    p.first = rec(0, 800, 900, false);   // 200 bases left in contig 0
    p.second = rec(1, 50, 150, true);    // 150 bases into contig 1
    p.first_aligned = p.second_aligned = true;
    pairs.push_back(p);
  }
  sc.add_pairs(pairs);
  const auto links = sc.links();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].from, 0u);
  EXPECT_EQ(links[0].to, 1u);
  EXPECT_EQ(links[0].support, 5);
  // gap = insert - (1000-800) - 150 = 400 - 200 - 150 = 50.
  EXPECT_DOUBLE_EQ(links[0].gap_estimate, 50.0);
}

TEST(Scaffolder, MinLinksFiltersWeakEdges) {
  Scaffolder sc({1000, 1000}, {.insert_mean = 400, .min_links = 3});
  std::vector<MatePair> pairs(2);
  for (auto& p : pairs) {
    p.first = rec(0, 800, 900, false);
    p.second = rec(1, 50, 150, true);
    p.first_aligned = p.second_aligned = true;
  }
  sc.add_pairs(pairs);
  EXPECT_TRUE(sc.links().empty());
}

TEST(Scaffolder, DiscordantAndUnalignedPairsIgnored) {
  Scaffolder sc({1000, 1000}, {.insert_mean = 400, .min_links = 1});
  std::vector<MatePair> pairs(3);
  pairs[0].first = rec(0, 800, 900, false);  // same orientation: discordant
  pairs[0].second = rec(1, 50, 150, false);
  pairs[0].first_aligned = pairs[0].second_aligned = true;
  pairs[1].first = rec(0, 800, 900, false);  // mate unaligned
  pairs[1].first_aligned = true;
  pairs[2].first = rec(0, 800, 900, false);  // same contig
  pairs[2].second = rec(0, 100, 200, true);
  pairs[2].first_aligned = pairs[2].second_aligned = true;
  sc.add_pairs(pairs);
  EXPECT_TRUE(sc.links().empty());
}

TEST(Scaffolder, BuildsChainInOrder) {
  // 4 contigs linked 0->1->2->3.
  Scaffolder sc({500, 500, 500, 500}, {.insert_mean = 300, .min_links = 2});
  std::vector<MatePair> pairs;
  for (std::uint32_t c = 0; c + 1 < 4; ++c) {
    for (int i = 0; i < 4; ++i) {
      MatePair p;
      p.first = rec(c, 400, 480, false);
      p.second = rec(c + 1, 30, 110, true);
      p.first_aligned = p.second_aligned = true;
      pairs.push_back(p);
    }
  }
  sc.add_pairs(pairs);
  const auto scaffolds = sc.build();
  ASSERT_EQ(scaffolds.size(), 1u);
  ASSERT_EQ(scaffolds[0].contigs.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c)
    EXPECT_EQ(scaffolds[0].contigs[c], c);
  EXPECT_EQ(scaffolds[0].gaps.size(), 3u);
}

TEST(Scaffolder, RefusesCyclesAndDegreeViolations) {
  // Links 0->1, 1->0 (cycle) and 0->2 (second out-edge of 0).
  Scaffolder sc({500, 500, 500}, {.insert_mean = 300, .min_links = 1});
  std::vector<MatePair> pairs;
  const auto add = [&](std::uint32_t from, std::uint32_t to, int n) {
    for (int i = 0; i < n; ++i) {
      MatePair p;
      p.first = rec(from, 400, 480, false);
      p.second = rec(to, 30, 110, true);
      p.first_aligned = p.second_aligned = true;
      pairs.push_back(p);
    }
  };
  add(0, 1, 5);
  add(1, 0, 3);  // would close a cycle; weaker, so rejected
  add(0, 2, 2);  // 0 already has an out-edge
  sc.add_pairs(pairs);
  const auto scaffolds = sc.build();
  // Expect one chain 0->1 and a singleton 2.
  ASSERT_EQ(scaffolds.size(), 2u);
  EXPECT_EQ(scaffolds[0].contigs, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(scaffolds[1].contigs, (std::vector<std::uint32_t>{2}));
}

TEST(Scaffolder, PairAdjacentValidatesSizes) {
  EXPECT_THROW(
      Scaffolder::pair_adjacent(std::vector<AlignmentRecord>(3),
                                std::vector<bool>(2)),
      std::invalid_argument);
}

TEST(Scaffolder, EndToEndRecoversSimulatedContigOrder) {
  // Full-stack test: genome -> contigs -> paired reads -> merAligner ->
  // scaffolder; the rebuilt scaffold must follow the true contig order.
  using namespace mera;
  const std::string genome =
      seq::simulate_genome({.length = 120'000, .repeat_fraction = 0.0,
                            .rng_seed = 31});
  seq::ContigParams cp;
  cp.min_len = 1500;
  cp.max_len = 3500;
  cp.gap_min = 20;
  cp.gap_max = 200;
  cp.rng_seed = 32;
  const auto contigs = seq::chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = 8.0;
  rp.paired = true;
  rp.insert_mean = 900;
  rp.insert_sd = 50;
  rp.grouped = false;
  rp.rng_seed = 33;
  const auto reads = seq::simulate_reads(genome, rp);

  core::IndexConfig icfg;
  icfg.k = 21;
  icfg.buffer_S = 64;
  icfg.fragment_len = 512;
  core::SessionConfig scfg;
  scfg.permute_queries = false;
  pgas::Runtime rt(pgas::Topology(4, 2));
  const auto ref = core::IndexedReference::build(rt, contigs, icfg);
  core::AlignSession session(ref, scfg);
  VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, reads, sink);

  // Best alignment per read, in read order.
  std::map<std::string, AlignmentRecord> best;
  for (const auto& a : sink.take()) {
    auto it = best.find(a.query_name);
    if (it == best.end() || a.score > it->second.score)
      best[a.query_name] = a;
  }
  std::vector<AlignmentRecord> per_read(reads.size());
  std::vector<bool> aligned(reads.size(), false);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto it = best.find(reads[i].name);
    if (it != best.end()) {
      per_read[i] = it->second;
      aligned[i] = true;
    }
  }

  std::vector<std::size_t> lengths;
  for (const auto& c : contigs) lengths.push_back(c.seq.size());
  Scaffolder sc(lengths, {.insert_mean = rp.insert_mean, .min_links = 3});
  sc.add_pairs(Scaffolder::pair_adjacent(per_read, aligned));
  const auto scaffolds = sc.build();

  // The longest scaffold should chain many contigs in true (id) order.
  ASSERT_FALSE(scaffolds.empty());
  const auto& main_sc = scaffolds[0];
  EXPECT_GE(main_sc.contigs.size(), contigs.size() / 2);
  for (std::size_t i = 1; i < main_sc.contigs.size(); ++i)
    EXPECT_EQ(main_sc.contigs[i], main_sc.contigs[i - 1] + 1)
        << "scaffold order broken at " << i;
  // Gap estimates should be in the right ballpark of the simulated gaps.
  for (double g : main_sc.gaps) {
    EXPECT_GT(g, -200.0);
    EXPECT_LT(g, 500.0);
  }
}

}  // namespace
