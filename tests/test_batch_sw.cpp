// Equivalence and dispatch tests for the inter-candidate batch SW engine.
// The central contract, on EVERY dispatch tier this host supports: the
// traced sweep's alignments equal smith_waterman's field for field —
// including every per-pair fallback it takes. Ties are covered by
// TracedTiesZeroScoresAndQueriesLongerThanWindows, the int16-headroom,
// pad-unsafe and provenance-budget fallbacks by TracedFallbacksStayExact.
#include "align/batch_sw.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "align/extension.hpp"
#include "align/smith_waterman.hpp"
#include "seq/packed_seq.hpp"

namespace {

using mera::testutil::alignment_diff;
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

/// Enqueues `targets` against the scorer's query id 0 (`q`), runs the
/// one-shot flush() and checks every result against smith_waterman field for
/// field. Returns the flushed alignments.
std::vector<LocalAlignment> expect_flush_equals_scalar(
    BatchSwScorer& scorer, const std::vector<std::uint8_t>& q,
    const std::vector<std::vector<std::uint8_t>>& targets,
    const std::string& what) {
  for (const auto& t : targets) scorer.add(t);
  EXPECT_EQ(scorer.pending(), targets.size()) << what;
  auto got = scorer.flush();
  EXPECT_EQ(scorer.pending(), 0u) << what;
  EXPECT_EQ(got.size(), targets.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), targets.size()); ++i) {
    const auto want =
        smith_waterman(std::span<const std::uint8_t>(q),
                       std::span<const std::uint8_t>(targets[i]),
                       scorer.scoring());
    EXPECT_EQ(alignment_diff(got[i], want), "")
        << what << " " << isa_name(scorer.isa()) << " i=" << i;
  }
  return got;
}

class BatchSwTiers : public ::testing::TestWithParam<SwIsa> {};

TEST_P(BatchSwTiers, MatchesScalarReference) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(71);
  for (int round = 0; round < 8; ++round) {
    const std::string q = random_dna(rng, 1 + rng() % 150);
    const auto qc = dna_codes(q);
    BatchSwScorer scorer(qc, Scoring{}, isa);
    expect_flush_equals_scalar(scorer, qc, random_targets(rng, 40, 300),
                               "round=" + std::to_string(round) + " q=" + q);
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
    BatchSwScorer scorer(qc, sc, isa);
    const auto got = expect_flush_equals_scalar(
        scorer, qc, targets, "mismatch=" + std::to_string(sc.mismatch));
    ASSERT_EQ(got.size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i)
      ASSERT_EQ(got[i].score,
                sw_score_reference(std::span<const std::uint8_t>(qc),
                                   std::span<const std::uint8_t>(targets[i]),
                                   sc));
  }
}

TEST_P(BatchSwTiers, EmptyInputsScoreZero) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  const std::vector<std::uint8_t> empty;
  const auto qc = dna_codes(std::string_view("ACGT"));
  {
    BatchSwScorer scorer(empty, Scoring{}, isa);
    const auto res =
        expect_flush_equals_scalar(scorer, empty, {qc}, "empty query");
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].score, 0);
  }
  BatchSwScorer scorer(qc, Scoring{}, isa);
  const auto res =
      expect_flush_equals_scalar(scorer, qc, {empty, qc}, "empty target");
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].score, 0);
  EXPECT_TRUE(res[0].empty());
  EXPECT_EQ(res[1].score, 4 * Scoring{}.match);
}

TEST_P(BatchSwTiers, LargeBatchSpansManyLaneGroups) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(74);
  const auto qc = dna_codes(random_dna(rng, 101));
  BatchSwScorer scorer(qc, Scoring{}, isa);
  // > 4 AVX-512 lane groups of 32.
  expect_flush_equals_scalar(scorer, qc, random_targets(rng, 150, 220),
                             "large");
  if (isa != SwIsa::kScalar) {
    EXPECT_GT(scorer.lane_stats().groups, 1u);
  }
}

TEST_P(BatchSwTiers, ReuseAcrossFlushes) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(75);
  const auto qc = dna_codes(random_dna(rng, 80));
  BatchSwScorer scorer(qc, Scoring{}, isa);
  for (int round = 0; round < 3; ++round)
    expect_flush_equals_scalar(scorer, qc, random_targets(rng, 21, 160),
                               "round=" + std::to_string(round));
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

// The traced sweep must reproduce smith_waterman exactly on every tier over
// seed-projected windows, the candidates the session aligns: on and off the
// true diagonal (high and near-zero scores), 30 per flush.
TEST(BatchExtension, MatchesFullDpOnSeedWindows) {
  std::mt19937_64 rng(76);
  const std::string g = random_dna(rng, 4000);
  const PackedSeq target(g);
  const std::size_t pad = ExtensionConfig{}.window_pad;
  for (SwIsa isa : supported_tiers()) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t pos = rng() % 3800;
      std::string q = g.substr(pos, 100);
      for (int e = 0; e < 4; ++e) q[rng() % q.size()] = "ACGT"[rng() & 3u];
      const auto qc = dna_codes(q);
      BatchSwScorer scorer(qc, Scoring{}, isa);
      std::vector<std::vector<std::uint8_t>> windows;
      for (int c = 0; c < 30; ++c) {
        const std::size_t q_off = 20 + rng() % 40;
        const std::size_t t_off = c % 3 == 0 ? pos + q_off : rng() % 3900;
        const SeedWindow w =
            project_seed_window(qc.size(), target, q_off, t_off, pad);
        ASSERT_LT(w.begin, w.end);
        windows.push_back(dna_codes(target, w.begin, w.end - w.begin));
        scorer.add(windows.back());
      }
      const auto got = scorer.flush();
      ASSERT_EQ(got.size(), windows.size());
      for (std::size_t c = 0; c < windows.size(); ++c) {
        ASSERT_EQ(alignment_diff(got[c], smith_waterman(qc, windows[c])), "")
            << isa_name(isa) << " trial=" << trial << " c=" << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Traced sweep through caller-owned scratch: flush(TraceScratch&) ==
// smith_waterman, field for field
// ---------------------------------------------------------------------------

/// Runs one flush(TraceScratch&) over (query, target) pairs and checks every result
/// against smith_waterman. Returns the lane groups the sweep ran, so callers
/// can tell a SIMD sweep from a per-pair fallback.
std::uint64_t expect_traced_equals_scalar(
    const std::vector<std::vector<std::uint8_t>>& queries,
    const std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>>&
        cands,
    const Scoring& sc, SwIsa isa, const std::string& what) {
  BatchSwScorer scorer(sc, isa);
  std::vector<std::size_t> qids;
  for (const auto& q : queries)
    qids.push_back(scorer.add_query(std::span<const std::uint8_t>(q)));
  for (const auto& [qi, t] : cands)
    scorer.add(qids[qi], std::span<const std::uint8_t>(t));
  TraceScratch scratch;
  const auto got = scorer.flush(scratch);
  EXPECT_EQ(got.size(), cands.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto want = smith_waterman(
        std::span<const std::uint8_t>(queries[cands[i].first]),
        std::span<const std::uint8_t>(cands[i].second), sc);
    EXPECT_EQ(alignment_diff(got[i], want), "")
        << what << " " << isa_name(isa) << " i=" << i;
  }
  EXPECT_EQ(scorer.pending(), 0u);
  return scorer.lane_stats().groups;
}

/// A read's window: `q` mutated by substitutions and short indels, inside
/// random flanks of `flank` bases each side.
std::vector<std::uint8_t> mutated_window(std::mt19937_64& rng,
                                         const std::string& q,
                                         std::size_t flank) {
  std::string body = q;
  for (int e = 0; e < 3; ++e) body[rng() % body.size()] = "ACGT"[rng() & 3u];
  if (rng() % 2) body.erase(rng() % body.size(), 1 + rng() % 3);
  if (rng() % 2) body.insert(rng() % body.size(), random_dna(rng, 1 + rng() % 3));
  return dna_codes(random_dna(rng, flank) + body + random_dna(rng, flank));
}

TEST_P(BatchSwTiers, TracedRandomPairsWithIndelsAndMixedLengths) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(81);
  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<std::string> qstr;
  for (int q = 0; q < 7; ++q) {  // mixed query lengths: pad rows per group
    qstr.push_back(random_dna(rng, 40 + rng() % 120));
    queries.push_back(dna_codes(qstr.back()));
  }
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> cands;
  for (int c = 0; c < 90; ++c) {
    const std::size_t qi = rng() % queries.size();
    if (c % 5 == 4) {  // unrelated window: low score
      cands.emplace_back(qi, dna_codes(random_dna(rng, 30 + rng() % 200)));
    } else if (c % 5 == 3) {  // clipped window: target shorter than query
      auto w = mutated_window(rng, qstr[qi], 16);
      w.resize(w.size() / 3 + 1);
      cands.emplace_back(qi, std::move(w));
    } else {
      cands.emplace_back(qi, mutated_window(rng, qstr[qi], rng() % 20));
    }
  }
  for (const Scoring& sc : {Scoring{}, Scoring{1, -3, 5, 2},
                            Scoring{3, -1, 1, 1}, Scoring{1, -1, 0, 1}}) {
    const auto groups =
        expect_traced_equals_scalar(queries, cands, sc, isa, "random");
    if (isa != SwIsa::kScalar) {
      EXPECT_GT(groups, 0u) << "no SIMD sweep ran";
    }
  }
}

TEST_P(BatchSwTiers, TracedTiesZeroScoresAndQueriesLongerThanWindows) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(82);
  // Tandem repeats: many cells tie the maximum; the first in row-major order
  // must win, as in the scalar engine.
  std::string acac;
  for (int i = 0; i < 20; ++i) acac += "AC";
  std::vector<std::vector<std::uint8_t>> queries{
      dna_codes(acac), dna_codes(std::string(30, 'A')),
      dna_codes(random_dna(rng, 120))};
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> cands;
  cands.emplace_back(0, dna_codes(acac + acac + "GG" + acac));
  cands.emplace_back(0, dna_codes("CACACA" + acac.substr(0, 10)));
  cands.emplace_back(1, dna_codes(std::string(10, 'A') + "C" +
                                  std::string(10, 'A')));
  // Score 0: no base in common, so the result is the all-soft-clip
  // alignment.
  cands.emplace_back(1, dna_codes(std::string(50, 'G')));
  // Queries longer than their windows (clipped at a contig end).
  cands.emplace_back(2, std::vector<std::uint8_t>(queries[2].begin() + 30,
                                                  queries[2].begin() + 70));
  cands.emplace_back(2, dna_codes(random_dna(rng, 5)));
  for (int c = 0; c < 10; ++c)
    cands.emplace_back(c % 3, dna_codes(random_dna(rng, 1 + rng() % 60)));
  expect_traced_equals_scalar(queries, cands, Scoring{}, isa, "ties");
}

TEST_P(BatchSwTiers, TracedFallbacksStayExact) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(83);
  const auto q = random_dna(rng, 100);
  const std::vector<std::vector<std::uint8_t>> mixed{dna_codes(q),
                                                     dna_codes(q.substr(0, 70))};
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> cands;
  for (int c = 0; c < 20; ++c)
    cands.emplace_back(c % 2, mutated_window(rng, q, 10));

  // Pad-unsafe scheme (mismatch > 0): mixed-length groups align per pair.
  Scoring unsafe;
  unsafe.mismatch = 1;
  EXPECT_EQ(expect_traced_equals_scalar(mixed, cands, unsafe, isa, "unsafe"),
            0u);
  // ... but a pad-unsafe group with no padding still sweeps.
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> uniform;
  for (int c = 0; c < 5; ++c)
    uniform.emplace_back(0, dna_codes(random_dna(rng, 90)));
  const auto uniform_groups =
      expect_traced_equals_scalar(mixed, uniform, unsafe, isa, "uniform");
  if (isa != SwIsa::kScalar) {
    EXPECT_GT(uniform_groups, 0u);
  }

  // 16-bit headroom: match 400 x 100 columns could overflow int16.
  Scoring big;
  big.match = 400;
  EXPECT_EQ(expect_traced_equals_scalar(mixed, cands, big, isa, "headroom"),
            0u);

  // Byte budget: a long read's provenance exceeds kTraceProvBudget.
  const auto longq = random_dna(rng, 2000);
  const std::vector<std::vector<std::uint8_t>> longs{dna_codes(longq)};
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> long_cands;
  long_cands.emplace_back(0, mutated_window(rng, longq, 16));
  long_cands.emplace_back(0, mutated_window(rng, longq, 16));
  const auto long_groups =
      expect_traced_equals_scalar(longs, long_cands, Scoring{}, isa, "budget");
  const std::size_t lanes = isa_lanes16(isa);
  if (2000 * 2032 * lanes > TraceScratch::kTraceProvBudget) {
    EXPECT_EQ(long_groups, 0u);
  }
}

}  // namespace
