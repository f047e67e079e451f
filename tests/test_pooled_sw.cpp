// Cross-read candidate pooling: the multi-query batch scorer, the
// PooledExtensionQueue, and the session-level pooled extension path.
//
// The central contract: pooling changes WHEN a candidate is aligned — never
// WHAT its alignment is, and never the order results are emitted in. So
//   1. the multi-query BatchSwScorer's alignments equal smith_waterman's
//      field for field for every (query, target) pair, on every dispatch
//      tier and under every scoring scheme (including pad-unsafe ones that
//      force the per-pair fallback);
//   2. the queue calls every tag back exactly once with smith_waterman's
//      alignment, whatever the length-class bucketing and flush thresholds
//      do; and
//   3. a pooled session on every ISA tier emits byte-identical records, SAM
//      and stats to one on the scalar tier (smith_waterman per candidate) on
//      the same reference, for K in {1,2,4} shards, on mixed-length query
//      sets — compared in EMISSION ORDER, so any reordering by the
//      deferred-replay machinery would fail the test.
#include "align/pooled_queue.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "align/batch_sw.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using mera::testutil::alignment_diff;
using mera::testutil::random_dna;

using namespace mera::align;
using mera::core::AlignmentRecord;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

std::vector<SwIsa> supported_tiers() {
  std::vector<SwIsa> tiers{SwIsa::kScalar};
  for (SwIsa isa : {SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512})
    if (isa_supported(isa)) tiers.push_back(isa);
  return tiers;
}

// ---------------------------------------------------------------------------
// Multi-query BatchSwScorer
// ---------------------------------------------------------------------------

class PooledSwTiers : public ::testing::TestWithParam<SwIsa> {};

TEST_P(PooledSwTiers, MultiQueryMatchesScalarReference) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  // Pad-safe (default), zero-mismatch, and pad-UNSAFE (mismatch > 0, which
  // routes mixed-length lane groups through the per-pair fallback) schemes.
  Scoring unsafe;
  unsafe.mismatch = 1;
  Scoring zero;
  zero.mismatch = 0;
  for (const Scoring& sc : {Scoring{}, zero, unsafe}) {
    std::mt19937_64 rng(1031);
    for (int round = 0; round < 4; ++round) {
      BatchSwScorer scorer(sc, isa);
      // Mixed-length queries — different length classes share one scorer
      // here, so heterogeneous lane groups are the norm, not the exception.
      std::vector<std::vector<std::uint8_t>> queries;
      std::vector<std::size_t> qids;
      for (int q = 0; q < 6; ++q) {
        queries.push_back(dna_codes(random_dna(rng, 20 + rng() % 130)));
        qids.push_back(scorer.add_query(
            std::span<const std::uint8_t>(queries.back())));
      }
      std::vector<std::size_t> cand_query;
      std::vector<std::vector<std::uint8_t>> cand_target;
      for (int c = 0; c < 70; ++c) {
        cand_query.push_back(rng() % queries.size());
        cand_target.push_back(dna_codes(random_dna(rng, rng() % 260)));
        scorer.add(qids[cand_query.back()],
                   std::span<const std::uint8_t>(cand_target.back()));
      }
      const auto got = scorer.flush();
      ASSERT_EQ(got.size(), cand_target.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const auto want = smith_waterman(
            std::span<const std::uint8_t>(queries[cand_query[i]]),
            std::span<const std::uint8_t>(cand_target[i]), sc);
        ASSERT_EQ(alignment_diff(got[i], want), "")
            << isa_name(isa) << " round=" << round << " i=" << i
            << " mismatch=" << sc.mismatch;
      }
    }
  }
}

TEST_P(PooledSwTiers, RepeatedFlushesReuseRegisteredQueries) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(77);
  const Scoring sc;
  BatchSwScorer scorer(sc, isa);
  const auto q = dna_codes(random_dna(rng, 90));
  const auto qid = scorer.add_query(std::span<const std::uint8_t>(q));
  for (int flush = 0; flush < 3; ++flush) {
    std::vector<std::vector<std::uint8_t>> targets;
    for (int c = 0; c < 9; ++c) {
      targets.push_back(dna_codes(random_dna(rng, 60 + rng() % 120)));
      scorer.add(qid, std::span<const std::uint8_t>(targets.back()));
    }
    const auto got = scorer.flush();
    ASSERT_EQ(got.size(), targets.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto want =
          smith_waterman(std::span<const std::uint8_t>(q),
                         std::span<const std::uint8_t>(targets[i]), sc);
      ASSERT_EQ(alignment_diff(got[i], want), "")
          << "flush=" << flush << " i=" << i;
    }
    EXPECT_EQ(scorer.pending(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, PooledSwTiers,
                         ::testing::ValuesIn(supported_tiers()),
                         [](const auto& info) {
                           return std::string(isa_name(info.param));
                         });

TEST(PooledSw, AddQueryDedupsIdenticalBytes) {
  BatchSwScorer scorer;
  const auto a = dna_codes("ACGTACGTACGT");
  const auto b = dna_codes("ACGTACGTACGT");
  const auto c = dna_codes("TTTTACGTACGT");
  const auto ida = scorer.add_query(std::span<const std::uint8_t>(a));
  const auto idb = scorer.add_query(std::span<const std::uint8_t>(b));
  const auto idc = scorer.add_query(std::span<const std::uint8_t>(c));
  EXPECT_EQ(ida, idb);
  EXPECT_NE(ida, idc);
  EXPECT_EQ(scorer.num_queries(), 2u);
}

// ---------------------------------------------------------------------------
// PooledExtensionQueue
// ---------------------------------------------------------------------------

// Property: however candidates fall into length-class buckets and flushes,
// every enqueued tag is called back EXACTLY once and its alignment is
// smith_waterman's. On every tier (flush thresholds 8 / 16 / 32) the queries
// span five length classes, and the candidate count leaves partial buckets
// behind the threshold flushes for drain() to align.
TEST(PooledQueue, EveryTagAlignedExactlyOnceAtAnyBucketing) {
  std::mt19937_64 rng(4099);
  for (SwIsa isa : supported_tiers()) {
    PooledQueueConfig cfg;
    cfg.isa = isa;
    std::map<std::uint64_t, LocalAlignment> got;
    PooledExtensionQueue queue(
        cfg, [&](std::uint64_t tag, const LocalAlignment& aln) {
          ASSERT_TRUE(got.emplace(tag, aln).second)
              << "tag " << tag << " aligned twice (" << isa_name(isa) << ")";
        });
    std::vector<std::vector<std::uint8_t>> queries;
    std::vector<std::size_t> qids;
    for (const std::size_t len : {20, 45, 60, 70, 90, 100, 130, 150}) {
      queries.push_back(dna_codes(random_dna(rng, len)));
      qids.push_back(
          queue.add_query(std::span<const std::uint8_t>(queries.back())));
    }
    std::vector<std::size_t> cand_query;
    std::vector<std::vector<std::uint8_t>> cand_target;
    for (std::uint64_t tag = 0; tag < 300; ++tag) {
      cand_query.push_back(rng() % queries.size());
      cand_target.push_back(dna_codes(random_dna(rng, 1 + rng() % 220)));
      queue.enqueue(qids[cand_query.back()],
                    std::span<const std::uint8_t>(cand_target.back()), tag);
    }
    EXPECT_GT(got.size(), 0u) << "no threshold flush (" << isa_name(isa)
                              << ")";
    EXPECT_GT(queue.pending(), 0u) << "no partial bucket (" << isa_name(isa)
                                   << ")";
    queue.drain();
    EXPECT_EQ(queue.pending(), 0u);
    ASSERT_EQ(got.size(), cand_target.size()) << isa_name(isa);
    for (std::uint64_t tag = 0; tag < cand_target.size(); ++tag) {
      const auto ref = smith_waterman(
          std::span<const std::uint8_t>(queries[cand_query[tag]]),
          std::span<const std::uint8_t>(cand_target[tag]));
      ASSERT_EQ(alignment_diff(got[tag], ref), "")
          << "tag=" << tag << " " << isa_name(isa);
    }
  }
}

TEST(PooledQueue, AutoFlushThresholdIsTheTraceLaneWidth) {
  PooledQueueConfig cfg;
  PooledExtensionQueue queue(cfg, [](std::uint64_t, const LocalAlignment&) {});
  const std::size_t lanes = isa_lanes16(SwIsa::kAuto);
  EXPECT_EQ(queue.flush_lanes(), lanes > 1 ? lanes : 16u);
}

// ---------------------------------------------------------------------------
// Session-level bit-identity: every tier against the scalar reference
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

/// Mixed-length query set: reads are trimmed to 5 different lengths so the
/// pooled path spreads them over several length-class buckets.
Workload make_mixed_workload(std::size_t genome_len, double depth,
                             std::uint64_t seed = 7) {
  Workload w;
  mera::seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = 0.02;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = 120;
  rp.depth = depth;
  rp.error_rate = 0.01;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(genome, rp);
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    const std::size_t len = 60 + (i % 5) * 15;  // 60..120
    w.reads[i].seq.resize(len);
    if (!w.reads[i].qual.empty()) w.reads[i].qual.resize(len);
  }
  return w;
}

mera::core::IndexConfig small_index(int k = 21) {
  mera::core::IndexConfig ic;
  ic.k = k;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

/// The default session (auto ISA), every candidate through SW.
mera::core::SessionConfig default_session() {
  mera::core::SessionConfig sc;
  sc.seed_cache_capacity = 1u << 14;
  sc.target_cache_bytes = 8u << 20;
  sc.exact_match = false;  // force every candidate through the SW kernel
  return sc;
}

mera::core::SessionConfig tier_session(SwIsa isa) {
  mera::core::SessionConfig sc = default_session();
  sc.extension.isa = isa;
  return sc;
}

/// The scalar tier (smith_waterman per candidate), the reference every
/// other tier must reproduce.
mera::core::SessionConfig scalar_session() {
  return tier_session(SwIsa::kScalar);
}

void expect_same_stats(const mera::core::PipelineStats& a,
                       const mera::core::PipelineStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.reads_processed, b.reads_processed) << what;
  EXPECT_EQ(a.reads_aligned, b.reads_aligned) << what;
  EXPECT_EQ(a.alignments_reported, b.alignments_reported) << what;
  EXPECT_EQ(a.seed_lookups, b.seed_lookups) << what;
  EXPECT_EQ(a.target_fetches, b.target_fetches) << what;
  EXPECT_EQ(a.sw_calls, b.sw_calls) << what;
  EXPECT_EQ(a.sw_cells, b.sw_cells) << what;
  EXPECT_EQ(a.hits_truncated, b.hits_truncated) << what;
}

std::string sam_of(const mera::core::IndexedReference& ref, Runtime& rt,
                   mera::core::AlignSession& session,
                   const std::vector<SeqRecord>& reads,
                   mera::core::BatchResult& out) {
  std::ostringstream os;
  mera::core::SamStreamSink sam(os, ref);
  out = session.align_batch(rt, reads, sam);
  return os.str();
}

TEST(PooledSession, PooledBatchEqualsFullDpOnEveryTier) {
  const auto w = make_mixed_workload(25'000, 1.2);
  // Each side builds its own reference: the index's hit order is canonical,
  // so the unsorted byte streams of separate builds must match.
  Runtime rt1(Topology(4, 2));
  const auto ref1 =
      mera::core::IndexedReference::build(rt1, w.contigs, small_index());
  mera::core::AlignSession s1(ref1, scalar_session());
  mera::core::BatchResult b1;
  const std::string sam1 = sam_of(ref1, rt1, s1, w.reads, b1);
  ASSERT_GT(b1.stats.alignments_reported, 0u);

  for (const SwIsa isa : supported_tiers()) {
    Runtime rt2(Topology(4, 2));
    const auto ref2 =
        mera::core::IndexedReference::build(rt2, w.contigs, small_index());
    mera::core::AlignSession s2(ref2, tier_session(isa));
    mera::core::BatchResult b2;
    const std::string sam2 = sam_of(ref2, rt2, s2, w.reads, b2);
    EXPECT_EQ(sam1, sam2) << isa_name(isa);
    expect_same_stats(b1.stats, b2.stats, isa_name(isa));
    // The pooled engine really ran: its sweeps are on the lane ledger.
    EXPECT_GT(b2.lane_stats.flushes, 0u) << isa_name(isa);
  }
}

TEST(PooledSession, EmissionOrderIsPreservedNotJustTheRecordSet) {
  // VectorSink::take() returns records in emission order; comparing the
  // vectors UNSORTED proves the pooled replay machinery reproduces the
  // scalar tier's exact per-read / per-strand / per-candidate order (and
  // the scalar run pins discovery order itself: tests/golden's mixed-length
  // fixture was generated by inline, unpooled resolution).
  const auto w = make_mixed_workload(20'000, 1.0, /*seed=*/21);
  Runtime rt1(Topology(4, 2));
  const auto ref =
      mera::core::IndexedReference::build(rt1, w.contigs, small_index());
  mera::core::AlignSession s1(ref, scalar_session());
  mera::core::VectorSink sink1(rt1.nranks());
  const auto r1 = s1.align_batch(rt1, w.reads, sink1);
  const auto v1 = sink1.take();
  ASSERT_GT(v1.size(), 0u);
  for (const SwIsa isa : supported_tiers()) {
    Runtime rt2(Topology(4, 2));
    mera::core::AlignSession s2(ref, tier_session(isa));
    mera::core::VectorSink sink2(rt2.nranks());
    const auto r2 = s2.align_batch(rt2, w.reads, sink2);
    const auto v2 = sink2.take();
    ASSERT_EQ(v1.size(), v2.size()) << isa_name(isa);
    for (std::size_t i = 0; i < v1.size(); ++i)
      EXPECT_EQ(v1[i], v2[i]) << isa_name(isa) << " i=" << i;
    expect_same_stats(r1.stats, r2.stats, isa_name(isa));
  }
}

TEST(PooledSession, PooledBatchEqualsFullDpAcrossShardCounts) {
  const auto w = make_mixed_workload(25'000, 1.2, /*seed=*/31);
  for (const int shards : {1, 2, 4}) {
    Runtime rt0(Topology(4, 2));
    mera::shard::ShardPlanOptions popt;
    popt.shards = shards;
    popt.k = small_index().k;
    const auto ref = mera::shard::ShardedReference::build(
        rt0, w.contigs, plan_shards(w.contigs, popt), small_index());
    const auto run = [&](mera::core::SessionConfig scfg,
                         mera::core::PipelineStats& stats) {
      Runtime rt(Topology(4, 2));
      scfg.max_hits_per_seed = 4096;  // exhaustive: shard-composable regime
      mera::shard::ShardedAlignSession session(ref, scfg);
      std::ostringstream os;
      mera::core::SamStreamSink sam(os, ref.sam_targets(), rt.nranks());
      stats = session.align_batch(rt, w.reads, sam).stats;
      return os.str();
    };
    mera::core::PipelineStats scalar_stats;
    const std::string scalar_sam = run(scalar_session(), scalar_stats);
    ASSERT_GT(scalar_stats.alignments_reported, 0u);
    for (const SwIsa isa : supported_tiers()) {
      const std::string what =
          "K=" + std::to_string(shards) + " " + isa_name(isa);
      mera::core::PipelineStats stats;
      EXPECT_EQ(scalar_sam, run(tier_session(isa), stats)) << what;
      expect_same_stats(scalar_stats, stats, what);
    }
  }
}

// Repeat-rich 150 bp reads (a quarter of the genome is repeat copies, like
// the wheat workload): many candidates per read, tied windows across repeat
// copies and truncated hit lists. The DEFAULT session — no tier named —
// must reproduce the scalar tier exactly: unsorted SAM bytes, VectorSink
// emission order and PipelineStats, for K in {1,2,4} shards.
TEST(PooledSession, DefaultKernelEqualsFullDpOnRepeatRichReads) {
  mera::seq::GenomeParams gp;
  gp.length = 40'000;
  gp.repeat_fraction = 0.25;
  gp.rng_seed = 99;
  const std::string genome = simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.rng_seed = 100;
  const auto contigs = chop_into_contigs(genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = 150;
  rp.depth = 0.6;
  rp.error_rate = 0.01;
  rp.n_rate = 0.0;
  rp.rng_seed = 101;
  const auto reads = simulate_reads(genome, rp);
  ASSERT_EQ(default_session().extension.isa, SwIsa::kAuto);

  for (const int shards : {1, 2, 4}) {
    Runtime rt0(Topology(4, 2));
    mera::shard::ShardPlanOptions popt;
    popt.shards = shards;
    popt.k = small_index().k;
    const auto ref = mera::shard::ShardedReference::build(
        rt0, contigs, plan_shards(contigs, popt), small_index());
    const auto sam_run = [&](const mera::core::SessionConfig& scfg,
                             mera::core::PipelineStats& stats) {
      Runtime rt(Topology(4, 2));
      mera::shard::ShardedAlignSession session(ref, scfg);
      std::ostringstream os;
      mera::core::SamStreamSink sam(os, ref.sam_targets(), rt.nranks());
      stats = session.align_batch(rt, reads, sam).stats;
      return os.str();
    };
    const auto vector_run = [&](const mera::core::SessionConfig& scfg) {
      Runtime rt(Topology(4, 2));
      mera::shard::ShardedAlignSession session(ref, scfg);
      mera::core::VectorSink sink(rt.nranks());
      (void)session.align_batch(rt, reads, sink);
      return sink.take();
    };
    const std::string what = "K=" + std::to_string(shards);
    mera::core::PipelineStats scalar_stats, default_stats;
    const std::string scalar_sam = sam_run(scalar_session(), scalar_stats);
    ASSERT_GT(scalar_stats.alignments_reported, scalar_stats.reads_processed)
        << what << ": expected several records per read";
    EXPECT_EQ(scalar_sam, sam_run(default_session(), default_stats)) << what;
    expect_same_stats(scalar_stats, default_stats, what);
    const auto v_scalar = vector_run(scalar_session());
    const auto v_default = vector_run(default_session());
    ASSERT_EQ(v_scalar.size(), v_default.size()) << what;
    for (std::size_t i = 0; i < v_scalar.size(); ++i)
      EXPECT_EQ(v_scalar[i], v_default[i]) << what << " i=" << i;
  }
}

}  // namespace
