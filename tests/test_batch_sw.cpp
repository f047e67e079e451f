// Equivalence and dispatch tests for the inter-candidate batch SW engine.
// The central contract: on EVERY dispatch tier this host supports, the batch
// scorer's score / t_end (smallest-t_end tie-break) are bit-identical to the
// scalar reference and to the per-pair striped kernel.
#include "align/batch_sw.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "align/extension.hpp"
#include "align/smith_waterman.hpp"
#include "align/striped_sw.hpp"
#include "seq/packed_seq.hpp"

namespace {

using mera::testutil::random_dna;

using namespace mera::align;
using mera::seq::PackedSeq;

/// Every concrete tier this binary + CPU can actually run (always includes
/// kScalar). Tests sweep these so CI proves bit-identity on each.
std::vector<SwIsa> supported_tiers() {
  std::vector<SwIsa> tiers{SwIsa::kScalar};
  for (SwIsa isa : {SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512})
    if (isa_supported(isa)) tiers.push_back(isa);
  return tiers;
}

std::vector<std::vector<std::uint8_t>> random_targets(std::mt19937_64& rng,
                                                      std::size_t n,
                                                      std::size_t max_len) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(dna_codes(random_dna(rng, rng() % (max_len + 1))));
  return out;
}

class BatchSwTiers : public ::testing::TestWithParam<SwIsa> {};

TEST_P(BatchSwTiers, MatchesScalarReferenceAndStriped) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(71);
  const Scoring sc;
  for (int round = 0; round < 8; ++round) {
    const std::string q = random_dna(rng, 1 + rng() % 150);
    const auto qc = dna_codes(q);
    const auto targets = random_targets(rng, 40, 300);
    const auto got = batch_sw_scores(qc, targets, sc, isa);
    ASSERT_EQ(got.size(), targets.size());
    const StripedSmithWaterman ssw(std::span<const std::uint8_t>(qc), sc);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score)
          << isa_name(isa) << " round=" << round << " i=" << i << " q=" << q;
      ASSERT_EQ(got[i].t_end, ref.t_end)
          << isa_name(isa) << " round=" << round << " i=" << i << " q=" << q;
      const auto sres = ssw.align(std::span<const std::uint8_t>(targets[i]));
      ASSERT_EQ(got[i].score, sres.score);
      ASSERT_EQ(got[i].t_end, sres.t_end);
      // used_16bit is an 8-bit-saturation fact, only defined where an 8-bit
      // SIMD pass ran: compare it between the SIMD engines, not vs scalar.
      if (isa != SwIsa::kScalar && StripedSmithWaterman::simd_enabled())
        ASSERT_EQ(got[i].used_16bit, sres.used_16bit);
    }
  }
}

TEST_P(BatchSwTiers, MatchesReferenceAcrossScoringSchemes) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(72);
  for (const Scoring sc : {Scoring{2, -2, 3, 1}, Scoring{1, -3, 5, 2},
                           Scoring{3, -1, 1, 1}, Scoring{1, -1, 0, 1}}) {
    const std::string q = random_dna(rng, 10 + rng() % 120);
    const auto qc = dna_codes(q);
    const auto targets = random_targets(rng, 37, 250);
    const auto got = batch_sw_scores(qc, targets, sc, isa);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
      ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
      ASSERT_EQ(got[i].score,
                sw_score_reference(std::span<const std::uint8_t>(qc),
                                   std::span<const std::uint8_t>(targets[i]),
                                   sc));
    }
  }
}

TEST_P(BatchSwTiers, TiedScoresPickSmallestTEnd) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  const Scoring sc;
  const std::string q = "ACGTAC";
  // Three tandem copies: the best score is achieved ending at t[5], t[11]
  // and t[17]; the pinned tie-break selects the first.
  const auto qc = dna_codes(q);
  const auto tc = dna_codes(q + q + q);
  BatchSwScorer scorer(qc, sc, isa);
  scorer.add(tc);
  const auto res = scorer.flush();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].score, sc.match * 6);
  EXPECT_EQ(res[0].t_end, 5u) << isa_name(isa);
}

TEST_P(BatchSwTiers, SaturatedLanesEscalateTo16Bit) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(73);
  const Scoring sc;
  const std::string q = random_dna(rng, 400);
  const auto qc = dna_codes(q);
  // Mix saturating (perfect 400bp self-match: score 800 > 255) and small
  // candidates in one batch so both passes run and slot results correctly.
  std::vector<std::vector<std::uint8_t>> targets;
  for (int i = 0; i < 9; ++i) {
    targets.push_back(dna_codes(random_dna(rng, 60)));
    targets.push_back(qc);
  }
  const auto got = batch_sw_scores(qc, targets, sc, isa);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto ref = striped_scalar_score(qc, targets[i], sc);
    ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
    ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
    if (i % 2 == 1) {
      EXPECT_EQ(got[i].score, 800);
      if (isa != SwIsa::kScalar) EXPECT_TRUE(got[i].used_16bit);
    }
  }
}

TEST_P(BatchSwTiers, EmptyInputsScoreZero) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  const Scoring sc;
  {
    BatchSwScorer scorer(std::span<const std::uint8_t>(), sc, isa);
    scorer.add(dna_codes(std::string_view("ACGT")));
    const auto res = scorer.flush();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].score, 0);
  }
  {
    const auto qc = dna_codes(std::string_view("ACGT"));
    BatchSwScorer scorer(qc, sc, isa);
    scorer.add(std::span<const std::uint8_t>());
    scorer.add(qc);
    const auto res = scorer.flush();
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].score, 0);
    EXPECT_EQ(res[1].score, 4 * sc.match);
  }
}

TEST_P(BatchSwTiers, LargeBatchSpansManyLaneGroups) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(74);
  const Scoring sc;
  const std::string q = random_dna(rng, 101);
  const auto qc = dna_codes(q);
  const auto targets = random_targets(rng, 150, 220);  // > 2 AVX-512 groups
  const auto got = batch_sw_scores(qc, targets, sc, isa);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto ref = striped_scalar_score(qc, targets[i], sc);
    ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
    ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
  }
}

TEST_P(BatchSwTiers, ReuseAcrossFlushes) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(75);
  const Scoring sc;
  const auto qc = dna_codes(random_dna(rng, 80));
  BatchSwScorer scorer(qc, sc, isa);
  for (int round = 0; round < 3; ++round) {
    const auto targets = random_targets(rng, 21, 160);
    for (const auto& t : targets) scorer.add(t);
    EXPECT_EQ(scorer.pending(), targets.size());
    const auto got = scorer.flush();
    EXPECT_EQ(scorer.pending(), 0u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score);
      ASSERT_EQ(got[i].t_end, ref.t_end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BatchSwTiers,
                         ::testing::Values(SwIsa::kScalar, SwIsa::kSse2,
                                           SwIsa::kAvx2, SwIsa::kAvx512),
                         [](const auto& info) { return isa_name(info.param); });

TEST(SwIsaDispatch, NamesRoundTrip) {
  for (SwIsa isa : {SwIsa::kAuto, SwIsa::kScalar, SwIsa::kSse2, SwIsa::kAvx2,
                    SwIsa::kAvx512})
    EXPECT_EQ(parse_isa(isa_name(isa)), isa);
  EXPECT_FALSE(parse_isa("sse9").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
}

TEST(SwIsaDispatch, DetectReturnsASupportedTier) {
  const SwIsa isa = detect_isa();
  EXPECT_NE(isa, SwIsa::kAuto);
  EXPECT_TRUE(isa_supported(isa));
}

TEST(SwIsaDispatch, EnvOverridePinsTier) {
  ASSERT_EQ(setenv("MERA_SW_ISA", "scalar", 1), 0);
  const auto qc = dna_codes(std::string_view("ACGTACGT"));
  {
    BatchSwScorer scorer(qc);
    EXPECT_EQ(scorer.isa(), SwIsa::kScalar);
  }
  // An explicit tier beats the environment.
  if (isa_supported(SwIsa::kSse2)) {
    BatchSwScorer scorer(qc, Scoring{}, SwIsa::kSse2);
    EXPECT_EQ(scorer.isa(), SwIsa::kSse2);
  }
  ASSERT_EQ(setenv("MERA_SW_ISA", "not-an-isa", 1), 0);
  EXPECT_THROW(BatchSwScorer{qc}, std::invalid_argument);
  ASSERT_EQ(unsetenv("MERA_SW_ISA"), 0);
  BatchSwScorer scorer(qc);
  EXPECT_EQ(scorer.isa(), detect_isa());
}

TEST(SwIsaDispatch, UnsupportedExplicitTierThrows) {
  // At most one of these can be the CPU's actual widest tier; find a tier
  // that is NOT supported, if any, and check the constructor refuses it.
  for (SwIsa isa : {SwIsa::kAvx512, SwIsa::kAvx2, SwIsa::kSse2})
    if (!isa_supported(isa)) {
      const auto qc = dna_codes(std::string_view("ACGT"));
      EXPECT_THROW(BatchSwScorer(qc, Scoring{}, isa), std::invalid_argument);
      return;
    }
  GTEST_SKIP() << "every SIMD tier is supported on this host";
}

// extend_seed(kBatch, screen) must reproduce extend_seed(kFullDP) exactly on
// every tier: survivors get the identical alignment, and a candidate is
// screened out (empty alignment carrying its score) precisely when its
// full-DP score falls below the screen.
TEST(BatchExtension, MatchesFullDpExtendSeed) {
  std::mt19937_64 rng(76);
  const std::string g = random_dna(rng, 4000);
  const PackedSeq target(g);
  for (SwIsa isa : supported_tiers()) {
    ExtensionConfig full_cfg;
    ExtensionConfig batch_cfg;
    batch_cfg.kernel = SwKernel::kBatch;
    batch_cfg.isa = isa;
    std::size_t screened_out = 0, survived = 0;
    for (int trial = 0; trial < 10; ++trial) {
      std::string q = g.substr(rng() % 3800, 100);
      for (int e = 0; e < 4; ++e) q[rng() % q.size()] = "ACGT"[rng() & 3u];
      const auto qc = dna_codes(q);
      const std::span<const std::uint8_t> query(qc);
      const int screen = 30 + static_cast<int>(rng() % 100);
      for (int c = 0; c < 30; ++c) {
        const std::size_t q_off = 20 + rng() % 40;
        const std::size_t t_off = rng() % 3900;
        const auto got =
            extend_seed(query, target, q_off, t_off, 21, batch_cfg, screen);
        const auto want =
            extend_seed(query, target, q_off, t_off, 21, full_cfg, screen);
        const std::string where = std::string(isa_name(isa)) +
                                  " trial=" + std::to_string(trial) +
                                  " c=" + std::to_string(c);
        ASSERT_EQ(got.aln.score, want.aln.score) << where;
        ASSERT_EQ(got.window_begin, want.window_begin) << where;
        ASSERT_EQ(got.window_end, want.window_end) << where;
        if (want.aln.score < screen) {
          ASSERT_TRUE(got.aln.empty()) << where;
          ++screened_out;
          continue;
        }
        ++survived;
        ASSERT_EQ(got.aln.t_begin, want.aln.t_begin) << where;
        ASSERT_EQ(got.aln.t_end, want.aln.t_end) << where;
        ASSERT_EQ(got.aln.q_begin, want.aln.q_begin) << where;
        ASSERT_EQ(got.aln.q_end, want.aln.q_end) << where;
        ASSERT_EQ(got.aln.cigar.to_string(), want.aln.cigar.to_string())
            << where;
        ASSERT_EQ(got.aln.mismatches, want.aln.mismatches) << where;
      }
    }
    // Both branches of the screen were exercised.
    EXPECT_GT(screened_out, 0u) << isa_name(isa);
    EXPECT_GT(survived, 0u) << isa_name(isa);
  }
}

TEST(BatchExtension, SingleCandidateKernelRoute) {
  // extend_seed with SwKernel::kBatch (the one-off route) also matches.
  std::mt19937_64 rng(77);
  const std::string g = random_dna(rng, 1000);
  const PackedSeq target(g);
  const std::string q = g.substr(300, 90);
  const auto qc = dna_codes(q);
  ExtensionConfig batch_cfg;
  batch_cfg.kernel = SwKernel::kBatch;
  const auto got = extend_seed(std::span<const std::uint8_t>(qc), target, 20,
                               320, 21, batch_cfg);
  const auto want =
      extend_seed(std::span<const std::uint8_t>(qc), target, 20, 320, 21, {});
  EXPECT_EQ(got.aln.score, want.aln.score);
  EXPECT_EQ(got.aln.t_begin, want.aln.t_begin);
  EXPECT_EQ(got.aln.t_end, want.aln.t_end);
}

}  // namespace
