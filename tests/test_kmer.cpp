#include "seq/kmer.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>

#include "seq/packed_seq.hpp"

namespace {

using mera::testutil::random_dna;

using namespace mera::seq;

TEST(Kmer, FromAsciiRoundTrip) {
  for (const char* s : {"A", "ACGT", "GATTACA",
                        "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG"}) {
    const auto m = Kmer::from_ascii(s);
    ASSERT_TRUE(m.has_value()) << s;
    EXPECT_EQ(m->to_string(), s);
    EXPECT_EQ(m->k(), static_cast<int>(std::string(s).size()));
  }
}

TEST(Kmer, FromAsciiRejectsInvalid) {
  EXPECT_FALSE(Kmer::from_ascii("ACGN").has_value());
  EXPECT_FALSE(Kmer::from_ascii("").has_value());
  EXPECT_FALSE(Kmer::from_ascii(std::string(65, 'A')).has_value());
}

TEST(Kmer, MaxLength64RoundTrip) {
  std::mt19937_64 rng(11);
  const std::string s = random_dna(rng, 64);
  const auto m = Kmer::from_ascii(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_string(), s);
}

TEST(Kmer, FromPackedAgreesWithFromAscii) {
  std::mt19937_64 rng(12);
  const std::string s = random_dna(rng, 120);
  const PackedSeq p(s);
  for (int k : {1, 15, 31, 32, 33, 51, 64}) {
    for (std::size_t pos : {0u, 1u, 17u, 50u}) {
      const auto a = Kmer::from_ascii(s.substr(pos, static_cast<std::size_t>(k)));
      const Kmer b = Kmer::from_packed(p, pos, k);
      ASSERT_TRUE(a.has_value());
      EXPECT_EQ(*a, b) << "k=" << k << " pos=" << pos;
    }
  }
}

TEST(Kmer, RollMatchesRebuildEveryWindow) {
  std::mt19937_64 rng(13);
  const std::string s = random_dna(rng, 300);
  for (int k : {3, 31, 32, 33, 51, 64}) {
    Kmer m = *Kmer::from_ascii(s.substr(0, static_cast<std::size_t>(k)));
    for (std::size_t start = 1;
         start + static_cast<std::size_t>(k) <= s.size(); ++start) {
      m.roll(encode_base(s[start + static_cast<std::size_t>(k) - 1]));
      const auto rebuilt =
          Kmer::from_ascii(s.substr(start, static_cast<std::size_t>(k)));
      ASSERT_EQ(m, *rebuilt) << "k=" << k << " start=" << start;
    }
  }
}

TEST(Kmer, ReverseComplementInvolution) {
  std::mt19937_64 rng(14);
  for (int k : {1, 21, 51, 64}) {
    const std::string s = random_dna(rng, static_cast<std::size_t>(k));
    const Kmer m = *Kmer::from_ascii(s);
    EXPECT_EQ(m.reverse_complement().reverse_complement(), m);
    EXPECT_EQ(m.reverse_complement().to_string(), reverse_complement(s));
  }
}

TEST(Kmer, RollingReverseComplementMatchesReverseComplement) {
  // A StrandedKmer's rc, rolled base by base, must equal the rebuilt
  // reverse complement of every window, for every k.
  std::mt19937_64 rng(17);
  const std::string s = random_dna(rng, 200);
  for (int k = 1; k <= kMaxSeedLen; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    auto m = StrandedKmer::of(*Kmer::from_ascii(s.substr(0, uk)));
    for (std::size_t start = 1; start + uk <= s.size(); ++start) {
      m.roll(encode_base(s[start + uk - 1]));
      const std::string window = s.substr(start, uk);
      ASSERT_EQ(m.fwd, *Kmer::from_ascii(window)) << "k=" << k;
      ASSERT_EQ(m.rc, *Kmer::from_ascii(reverse_complement(window)))
          << "k=" << k << " start=" << start;
      ASSERT_EQ(m.rc, m.fwd.reverse_complement()) << "k=" << k;
    }
  }
  // The stranded extraction agrees, windows with N skipped on both strands.
  const std::string with_n = s.substr(0, 60) + "N" + s.substr(60, 80);
  for (const int k : {5, 20, 21, 64}) {
    std::size_t windows = 0;
    for_each_stranded_seed(std::string_view(with_n), k,
                           [&](std::size_t off, const StrandedKmer& m) {
                             ++windows;
                             EXPECT_EQ(m.rc.to_string(),
                                       reverse_complement(with_n.substr(
                                           off, static_cast<std::size_t>(k))));
                           });
    std::size_t expect = 0;
    for_each_seed(std::string_view(with_n), k,
                  [&](std::size_t, const Kmer&) { ++expect; });
    EXPECT_EQ(windows, expect) << "k=" << k;
  }
}

TEST(Kmer, CanonicalFormIsStrandIndependent) {
  const auto a = StrandedKmer::of(*Kmer::from_ascii("TTGCA"));  // rc TGCAA
  EXPECT_TRUE(a.flipped());
  EXPECT_EQ(a.canonical().to_string(), "TGCAA");
  const auto b = StrandedKmer::of(a.rc);
  EXPECT_EQ(b.canonical(), a.canonical());
  EXPECT_FALSE(b.flipped());
  EXPECT_FALSE(a.palindrome());
  const auto p = StrandedKmer::of(*Kmer::from_ascii("AACCGGTT"));
  EXPECT_TRUE(p.palindrome());
  EXPECT_FALSE(p.flipped());
}

TEST(Kmer, EqualityDistinguishesKAndContent) {
  const Kmer a = *Kmer::from_ascii("ACGT");
  const Kmer b = *Kmer::from_ascii("ACGT");
  const Kmer c = *Kmer::from_ascii("ACGTA");
  const Kmer d = *Kmer::from_ascii("TCGA");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(Kmer, Djb2IsDeterministicAndSpreads) {
  std::mt19937_64 rng(15);
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 2000; ++i) {
    const Kmer m = *Kmer::from_ascii(random_dna(rng, 51));
    EXPECT_EQ(m.djb2(), m.djb2());
    hashes.insert(m.djb2());
  }
  // All-distinct is overwhelmingly likely for a decent hash.
  EXPECT_GT(hashes.size(), 1990u);
}

TEST(Kmer, Djb2MatchesTheByteLoop) {
  // djb2() evaluates a word at a time; it must equal the paper's byte-serial
  // h = h * 33 + byte over the packed bytes, for every k.
  std::mt19937_64 rng(18);
  for (int k = 1; k <= kMaxSeedLen; ++k) {
    for (int rep = 0; rep < 20; ++rep) {
      const Kmer m =
          *Kmer::from_ascii(random_dna(rng, static_cast<std::size_t>(k)));
      std::uint64_t h = 5381;
      for (int b = 0; b < (k + 3) / 4; ++b)
        h = h * 33u + static_cast<std::uint8_t>(
                          m.words()[static_cast<std::size_t>(b) >> 3] >>
                          ((b & 7) * 8));
      ASSERT_EQ(m.djb2(), h) << "k=" << k;
    }
  }
}

TEST(Kmer, Djb2BalancesSeedsAcrossRanks) {
  // The paper attributes near-perfect distinct-seed balance to djb2
  // (Section VI-C1). Check the spread over a simulated 16-rank machine.
  std::mt19937_64 rng(16);
  const int nranks = 16;
  std::map<int, int> per_rank;
  const int n = 20000;
  const std::string genome = random_dna(rng, 20000 + 50);
  for (int i = 0; i < n; ++i) {
    const Kmer m =
        *Kmer::from_ascii(std::string_view(genome).substr(
            static_cast<std::size_t>(i), 51));
    ++per_rank[static_cast<int>(m.djb2() % nranks)];
  }
  const double mean = static_cast<double>(n) / nranks;
  for (const auto& [rank, count] : per_rank) {
    EXPECT_GT(count, mean * 0.85) << "rank " << rank;
    EXPECT_LT(count, mean * 1.15) << "rank " << rank;
  }
}

TEST(Kmer, ForEachSeedYieldsAllWindows) {
  std::mt19937_64 rng(17);
  const std::string s = random_dna(rng, 100);
  const int k = 21;
  std::size_t expected = 0;
  std::vector<std::pair<std::size_t, std::string>> got;
  for_each_seed(std::string_view(s), k,
                [&](std::size_t off, const Kmer& m) {
                  got.emplace_back(off, m.to_string());
                });
  expected = s.size() - static_cast<std::size_t>(k) + 1;
  ASSERT_EQ(got.size(), expected);
  for (const auto& [off, str] : got)
    EXPECT_EQ(str, s.substr(off, static_cast<std::size_t>(k)));
}

TEST(Kmer, ForEachSeedSkipsWindowsContainingN) {
  std::string s = "ACGTACGTACGTACGTACGT";  // 20 bases
  s[7] = 'N';
  const int k = 5;
  std::vector<std::size_t> offsets;
  for_each_seed(std::string_view(s), k,
                [&](std::size_t off, const Kmer&) { offsets.push_back(off); });
  // Windows [3..7] overlap position 7 and must be skipped.
  for (std::size_t off : offsets)
    EXPECT_TRUE(off + 5 <= 7 || off >= 8) << "off=" << off;
  // Expected: offsets 0..2 and 8..15 -> 3 + 8 = 11 windows.
  EXPECT_EQ(offsets.size(), 11u);
}

TEST(Kmer, ForEachSeedRollingEqualsRebuilt) {
  std::mt19937_64 rng(18);
  std::string s = random_dna(rng, 400);
  // Sprinkle Ns to force rebuild-after-bad-base transitions.
  for (int i = 0; i < 10; ++i) s[rng() % s.size()] = 'N';
  const int k = 17;
  for_each_seed(std::string_view(s), k, [&](std::size_t off, const Kmer& m) {
    const auto rebuilt =
        Kmer::from_ascii(s.substr(off, static_cast<std::size_t>(k)));
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(m, *rebuilt) << "off=" << off;
  });
}

TEST(Kmer, ForEachSeedOnPackedSeqAgreesWithAscii) {
  std::mt19937_64 rng(19);
  const std::string s = random_dna(rng, 200);
  const PackedSeq p(s);
  const int k = 33;
  std::vector<Kmer> from_ascii, from_packed;
  for_each_seed(std::string_view(s), k,
                [&](std::size_t, const Kmer& m) { from_ascii.push_back(m); });
  for_each_seed(p, k,
                [&](std::size_t, const Kmer& m) { from_packed.push_back(m); });
  ASSERT_EQ(from_ascii.size(), from_packed.size());
  for (std::size_t i = 0; i < from_ascii.size(); ++i)
    EXPECT_EQ(from_ascii[i], from_packed[i]);
}

TEST(Kmer, ForEachSeedEdgeCases) {
  int count = 0;
  const auto counter = [&](std::size_t, const Kmer&) { ++count; };
  for_each_seed(std::string_view("ACG"), 5, counter);  // shorter than k
  EXPECT_EQ(count, 0);
  for_each_seed(std::string_view("ACGTA"), 5, counter);  // exactly k
  EXPECT_EQ(count, 1);
  count = 0;
  for_each_seed(std::string_view("NNNNN"), 3, counter);  // all invalid
  EXPECT_EQ(count, 0);
}

}  // namespace
