// Seed extension as every caller runs it: project the seed's target window,
// then align the query against the window's codes with smith_waterman.
#include "align/extension.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "seq/dna.hpp"

namespace {

using mera::testutil::random_dna;

using namespace mera::align;
using mera::seq::PackedSeq;

struct Extended {
  SeedWindow window;
  LocalAlignment aln;  ///< t_begin/t_end in full-target coordinates
};

/// Extend the seed query[q_off..) == target[t_off..) inside its window; an
/// empty alignment when the window is empty.
Extended extend(const std::string& query, const PackedSeq& target,
                std::size_t q_off, std::size_t t_off) {
  Extended e;
  e.window = project_seed_window(query.size(), target, q_off, t_off,
                                 ExtensionConfig{}.window_pad);
  if (e.window.begin >= e.window.end) return e;
  e.aln = smith_waterman(
      dna_codes(query),
      dna_codes(target, e.window.begin, e.window.end - e.window.begin));
  e.aln.t_begin += e.window.begin;
  e.aln.t_end += e.window.begin;
  return e;
}

TEST(Extension, PerfectReadExtendsToFullLength) {
  std::mt19937_64 rng(61);
  const std::string g = random_dna(rng, 2000);
  const PackedSeq target(g);
  const std::size_t pos = 700;
  const std::string q = g.substr(pos, 100);
  // Seed at query offset 40 -> target offset pos+40.
  const auto ext = extend(q, target, 40, pos + 40);
  const std::size_t pad = ExtensionConfig{}.window_pad;
  EXPECT_EQ(ext.window.begin, pos - pad);
  EXPECT_EQ(ext.window.end, pos + 100 + pad);
  EXPECT_EQ(ext.aln.q_begin, 0u);
  EXPECT_EQ(ext.aln.q_end, 100u);
  EXPECT_EQ(ext.aln.t_begin, pos);
  EXPECT_EQ(ext.aln.t_end, pos + 100);
  EXPECT_EQ(ext.aln.score, Scoring{}.match * 100);
}

TEST(Extension, WindowIsClampedAtTargetEdges) {
  std::mt19937_64 rng(62);
  const std::string g = random_dna(rng, 300);
  const PackedSeq target(g);
  const std::string q = g.substr(0, 80);  // read at the very start
  const auto ext = extend(q, target, 10, 10);
  EXPECT_EQ(ext.window.begin, 0u);
  EXPECT_EQ(ext.aln.t_begin, 0u);
  EXPECT_EQ(ext.aln.score, Scoring{}.match * 80);
  // ... and at the very end.
  const std::string tail = g.substr(250);
  const auto end = extend(tail, target, 10, 260);
  EXPECT_EQ(end.window.end, g.size());
  EXPECT_EQ(end.aln.t_end, g.size());
  EXPECT_EQ(end.aln.score, Scoring{}.match * 50);
}

TEST(Extension, QueryHangingOffTargetStartIsClipped) {
  std::mt19937_64 rng(63);
  const std::string g = random_dna(rng, 500);
  const PackedSeq target(g);
  // Query's first 20 bases are junk that lies "before" the target.
  const std::string q = random_dna(rng, 20) + g.substr(0, 60);
  // Seed: query offset 20 matches target offset 0.
  const auto ext = extend(q, target, 20, 0);
  EXPECT_EQ(ext.window.begin, 0u);
  EXPECT_GE(ext.aln.score, Scoring{}.match * 60);
  EXPECT_EQ(ext.aln.t_begin, 0u);
  EXPECT_EQ(ext.aln.q_begin, 20u);
}

TEST(Extension, ReadWithErrorsStillExtendsAcrossThem) {
  std::mt19937_64 rng(64);
  const std::string g = random_dna(rng, 1000);
  const PackedSeq target(g);
  std::string q = g.substr(400, 100);
  q[10] = mera::seq::complement_base(q[10]);
  q[80] = mera::seq::complement_base(q[80]);
  // Seed in the clean middle region.
  const auto ext = extend(q, target, 30, 430);
  const Scoring sc;
  EXPECT_EQ(ext.aln.score, 98 * sc.match + 2 * sc.mismatch);
  EXPECT_EQ(ext.aln.mismatches, 2);
  EXPECT_EQ(ext.aln.t_begin, 400u);
}

TEST(Extension, IndelWithinPadIsRecovered) {
  std::mt19937_64 rng(65);
  const std::string g = random_dna(rng, 1000);
  const PackedSeq target(g);
  std::string q = g.substr(300, 100);
  q.erase(70, 2);  // 2-base deletion vs target
  const auto ext = extend(q, target, 20, 320);
  EXPECT_EQ(ext.aln.gap_columns, 2);
  EXPECT_EQ(ext.aln.q_end - ext.aln.q_begin, q.size());
}

TEST(Extension, DegenerateInputsAreSafe) {
  const PackedSeq target{std::string_view("ACGTACGT")};
  // Empty query: a window of pad bases, and an empty alignment in it.
  EXPECT_TRUE(extend("", target, 0, 0).aln.empty());
  // Empty target: no window.
  const auto none = extend("ACGTACGT", PackedSeq{}, 0, 0);
  EXPECT_GE(none.window.begin, none.window.end);
  EXPECT_TRUE(none.aln.empty());
  // A seed that projects the whole query past the target's end: no window.
  const auto past = extend("ACGT", target, 0, 100);
  EXPECT_GE(past.window.begin, past.window.end);
  EXPECT_TRUE(past.aln.empty());
}

}  // namespace
