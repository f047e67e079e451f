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

TEST(Extension, PerfectReadExtendsToFullLength) {
  std::mt19937_64 rng(61);
  const std::string g = random_dna(rng, 2000);
  const PackedSeq target(g);
  const std::size_t pos = 700;
  const std::string q = g.substr(pos, 100);
  const auto qc = dna_codes(q);
  const int k = 31;
  // Seed at query offset 40 -> target offset pos+40.
  const auto ext = extend_seed(std::span<const std::uint8_t>(qc), target, 40,
                               pos + 40, k, {});
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
  const auto qc = dna_codes(q);
  const auto ext =
      extend_seed(std::span<const std::uint8_t>(qc), target, 10, 10, 21, {});
  EXPECT_EQ(ext.window_begin, 0u);
  EXPECT_EQ(ext.aln.t_begin, 0u);
  EXPECT_EQ(ext.aln.score, Scoring{}.match * 80);
}

TEST(Extension, QueryHangingOffTargetStartIsClipped) {
  std::mt19937_64 rng(63);
  const std::string g = random_dna(rng, 500);
  const PackedSeq target(g);
  // Query's first 20 bases are junk that lies "before" the target.
  const std::string q = random_dna(rng, 20) + g.substr(0, 60);
  const auto qc = dna_codes(q);
  // Seed: query offset 20 matches target offset 0.
  const auto ext =
      extend_seed(std::span<const std::uint8_t>(qc), target, 20, 0, 21, {});
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
  const auto qc = dna_codes(q);
  // Seed in the clean middle region.
  const auto ext = extend_seed(std::span<const std::uint8_t>(qc), target, 30,
                               430, 31, {});
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
  const auto qc = dna_codes(q);
  const auto ext = extend_seed(std::span<const std::uint8_t>(qc), target, 20,
                               320, 31, {});
  EXPECT_EQ(ext.aln.gap_columns, 2);
  EXPECT_EQ(ext.aln.q_end - ext.aln.q_begin, q.size());
}

TEST(Extension, DegenerateInputsAreSafe) {
  const PackedSeq target{std::string_view("ACGTACGT")};
  const std::vector<std::uint8_t> empty;
  const auto ext = extend_seed(std::span<const std::uint8_t>(empty), target,
                               0, 0, 4, {});
  EXPECT_TRUE(ext.aln.empty());
}

}  // namespace
