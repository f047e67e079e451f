#include "dht/seed_index.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <ranges>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/indexed_reference.hpp"
#include "seq/dna.hpp"
#include "seq/kmer.hpp"

// Live heap bytes and their high-water mark, kept by the replacement
// operator new/delete below, so a test can bound what one step allocates.
namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* tracked_alloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) return nullptr;
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now = g_live_bytes.fetch_add(size) + size;
  std::int64_t peak = g_peak_bytes.load();
  while (now > peak && !g_peak_bytes.compare_exchange_weak(peak, now)) {
  }
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

void* tracked_alloc_or_throw(std::size_t n) {
  if (void* p = tracked_alloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return tracked_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return tracked_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}

namespace {

using mera::testutil::random_dna;

using namespace mera::dht;
using mera::pgas::CostModel;
using mera::pgas::Rank;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::for_each_stranded_seed;
using mera::seq::Kmer;
using mera::seq::StrandedKmer;

/// Ground truth over `seqs` (each sequence treated as one fragment, its
/// global id = position in the vector), via the shared testutil builder.
std::multimap<std::string, SeedHit> ground_truth(
    const std::vector<std::string>& seqs, int k) {
  return mera::testutil::seed_ground_truth<SeedHit>(
      seqs, k, [](std::uint32_t sid, std::size_t off) {
        return SeedHit{sid, sid, static_cast<std::uint32_t>(off)};
      });
}

/// `before_finish` runs on every rank between the inserts and finish_insert.
void build_index(Runtime& rt, SeedIndex& index,
                 const std::vector<std::string>& seqs, int k,
                 const std::function<void(Rank&)>& before_finish = {}) {
  rt.run([&](Rank& r) {
    // Block-partition the sequences over ranks.
    const std::size_t n = seqs.size();
    const auto me = static_cast<std::size_t>(r.id());
    const auto p = static_cast<std::size_t>(r.nranks());
    const std::size_t lo = n * me / p, hi = n * (me + 1) / p;
    for (std::size_t s = lo; s < hi; ++s)
      for_each_stranded_seed(std::string_view(seqs[s]), k,
                             [&](std::size_t, const StrandedKmer& m) {
                               index.count_seed(r, m);
                             });
    index.finish_count(r);
    for (std::size_t s = lo; s < hi; ++s)
      for_each_stranded_seed(
          std::string_view(seqs[s]), k,
          [&](std::size_t off, const StrandedKmer& m) {
            index.insert(r, m,
                         SeedHit{static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(off)});
          });
    if (before_finish) before_finish(r);
    index.finish_insert(r);
  });
}

class SeedIndexModes : public ::testing::TestWithParam<bool> {};

TEST_P(SeedIndexModes, AbsentSeedReturnsZero) {
  const bool aggregating = GetParam();
  Runtime rt(Topology(4, 2));
  SeedIndex index(rt.topo(), {5, aggregating, 8});
  std::vector<std::string> seqs{"ACGTACGTAC"};
  build_index(rt, index, seqs, 5);
  rt.run([&](Rank& r) {
    std::vector<SeedHit> hits;
    EXPECT_EQ(index.lookup(r, *Kmer::from_ascii("TTTTT"), 10, hits), 0u);
    EXPECT_TRUE(hits.empty());
  });
}

TEST_P(SeedIndexModes, DuplicateHitsAreMarkedNonUnique) {
  const bool aggregating = GetParam();
  Runtime rt(Topology(3, 3));
  const int k = 9;
  std::mt19937_64 rng(22);
  std::vector<std::string> seqs{random_dna(rng, 120), random_dna(rng, 120)};
  seqs.push_back(seqs[0].substr(0, 60));  // seq 2 duplicates half of seq 0
  SeedIndex index(rt.topo(), {k, aggregating, 8});
  build_index(rt, index, seqs, k);

  const auto truth = ground_truth(seqs, k);
  std::map<std::string, std::size_t> counts;
  for (const auto& [key, hit] : truth) ++counts[key];

  // Gather all duplicate-flagged fragment ids across ranks.
  std::vector<std::uint32_t> dup_frags;
  std::mutex mu;
  rt.run([&](Rank& r) {
    index.for_each_local_marked_hit(r, [&](const SeedHit& h, bool dup, bool) {
      if (!dup) return;
      const std::scoped_lock lk(mu);
      dup_frags.push_back(h.fragment_id);
    });
  });

  std::size_t expected_dup_entries = 0;
  for (const auto& [key, c] : counts)
    if (c > 1) expected_dup_entries += c;
  EXPECT_EQ(dup_frags.size(), expected_dup_entries);
  // Fragment 1 (unrelated random sequence) should not appear.
  for (auto f : dup_frags) EXPECT_NE(f, 1u);
}

TEST_P(SeedIndexModes, TruncatedRepeatKeepsTheSameTargetsForEverySeed) {
  // A 90 bp repeat pasted into 64 targets: each of its seeds has 64 hits,
  // and a max-hits cut of 5 must keep the same 5 targets, in the same
  // order, for every one of them, so a read's candidates still collapse.
  const bool aggregating = GetParam();
  std::mt19937_64 rng(26);
  const std::string repeat = random_dna(rng, 90);
  std::vector<std::string> seqs;
  for (int i = 0; i < 64; ++i)
    seqs.push_back(random_dna(rng, 50) + repeat + random_dna(rng, 50));
  const int k = 19;
  Runtime rt(Topology(8, 4));
  SeedIndex index(rt.topo(), {k, aggregating, 1});
  build_index(rt, index, seqs, k);

  rt.run([&](Rank& r) {
    if (r.id() != 0) return;
    std::vector<std::uint32_t> first_targets;
    for (std::size_t off = 0; off + k <= repeat.size(); ++off) {
      std::vector<SeedHit> hits;
      const auto seed = Kmer::from_ascii(repeat.substr(off, k));
      ASSERT_EQ(index.lookup(r, *seed, 5, hits), 64u) << off;
      std::vector<std::uint32_t> targets;
      for (const SeedHit& h : hits) {
        EXPECT_EQ(h.t_pos, 50 + off);
        targets.push_back(h.target_id);
      }
      if (off == 0) first_targets = targets;
      EXPECT_EQ(targets, first_targets) << "seed at repeat offset " << off;
    }
  });
}

TEST_P(SeedIndexModes, DirectoryEdgeCasesLookUpExactly) {
  // Few distinct seeds: on 8 ranks some owner receives no entry at all, and
  // on 1 rank the index has its minimum 16 buckets (the top 4 hash bits), so
  // several distinct seeds share a bucket. A 9 bp repeat in 6 targets makes
  // runs of 6 hits, longer than the max-hits cut of 4.
  const bool aggregating = GetParam();
  const int k = 7;
  std::mt19937_64 rng(35);
  const std::string repeat = random_dna(rng, 9);
  std::vector<std::string> seqs{random_dna(rng, 14), "ACACACACA"};
  for (int i = 0; i < 6; ++i) seqs.push_back(repeat);
  const auto truth = ground_truth(seqs, k);
  std::map<std::string, std::size_t> counts;
  for (const auto& [key, hit] : truth) ++counts[key];
  ASSERT_LE(counts.size(), 16u);

  std::map<std::uint64_t, int> per_bucket;
  for (const auto& [key, c] : counts)
    ++per_bucket[StrandedKmer::of(*Kmer::from_ascii(key)).canonical().mixed_hash() >> 60];
  ASSERT_GE(std::ranges::max(per_bucket | std::views::values), 3);

  using HitKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  const auto key_of = [](const SeedHit& h) {
    return HitKey{h.fragment_id, h.target_id, h.t_pos};
  };
  std::multiset<HitKey> expect_dups;
  for (const auto& [key, hit] : truth)
    if (counts[key] > 1) expect_dups.insert(key_of(hit));
  ASSERT_FALSE(expect_dups.empty());

  for (const int nranks : {1, 8}) {
    Runtime rt(Topology(nranks, 4));
    SeedIndex index(rt.topo(), {k, aggregating, 2});
    build_index(rt, index, seqs, k);
    EXPECT_EQ(index.total_entries(), truth.size());

    std::vector<std::size_t> owned(static_cast<std::size_t>(nranks), 0);
    for (const auto& [key, c] : counts)
      ++owned[static_cast<std::size_t>(
          index.owner_of(StrandedKmer::of(*Kmer::from_ascii(key))))];
    for (int r = 0; r < nranks; ++r)
      EXPECT_EQ(index.local_distinct_seeds(r),
                owned[static_cast<std::size_t>(r)])
          << "rank " << r;
    if (nranks > 1) {
      ASSERT_EQ(std::ranges::min(owned), 0u);
    }

    std::multiset<HitKey> dups;
    std::mutex mu;
    rt.run([&](Rank& r) {
      index.for_each_local_marked_hit(r, [&](const SeedHit& h, bool dup, bool) {
        if (!dup) return;
        const std::scoped_lock lk(mu);
        dups.insert(key_of(h));
      });
    });
    EXPECT_EQ(dups, expect_dups) << nranks << " ranks";

    rt.run([&](Rank& r) {
      if (r.id() != 0) return;
      for (const auto& [key, c] : counts) {
        const auto seed = *Kmer::from_ascii(key);
        std::multiset<HitKey> want;
        for (auto [e, end] = truth.equal_range(key); e != end; ++e)
          want.insert(key_of(e->second));
        std::vector<SeedHit> all, cut;
        EXPECT_EQ(index.lookup(r, seed, 1000, all), c) << key;
        EXPECT_EQ(index.lookup(r, seed, 4, cut), c) << key;
        std::multiset<HitKey> got;
        for (const SeedHit& h : all) got.insert(key_of(h));
        EXPECT_EQ(got, want) << key;
        ASSERT_EQ(cut.size(), std::min<std::size_t>(c, 4)) << key;
        EXPECT_TRUE(std::equal(cut.begin(), cut.end(), all.begin())) << key;

        // The same bases one shorter or longer are other seeds: absent.
        std::vector<SeedHit> none;
        EXPECT_EQ(index.lookup(r, *Kmer::from_ascii(key.substr(1)), 10, none),
                  0u);
        EXPECT_EQ(index.lookup(r, *Kmer::from_ascii(key + "A"), 10, none), 0u);
        EXPECT_TRUE(none.empty());
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(BothConstructionModes, SeedIndexModes,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "aggregating" : "naive";
                         });

TEST(SeedIndex, AggregatingModeSendsFarFewerMessages) {
  std::mt19937_64 rng(23);
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(random_dna(rng, 600));
  const int k = 15;

  auto traffic = [&](bool aggregating) {
    Runtime rt(Topology(8, 4));
    SeedIndex index(rt.topo(), {k, aggregating, 100});
    build_index(rt, index, seqs, k);
    std::uint64_t msgs = 0, atomics = 0;
    for (const auto& ph : rt.report().phases) {
      msgs += ph.traffic.remote_msgs();
      atomics += ph.traffic.atomics;
    }
    return std::pair{msgs, atomics};
  };

  const auto [naive_msgs, naive_atomics] = traffic(false);
  const auto [agg_msgs, agg_atomics] = traffic(true);
  // ~S-fold reduction (S=100; partial flushes erode it slightly).
  EXPECT_GT(naive_msgs, 20 * agg_msgs);
  EXPECT_GT(naive_atomics, 20 * agg_atomics);
}

TEST(SeedIndex, DistinctSeedBalanceAcrossRanks) {
  // djb2 seed-to-processor balance (Section VI-C1).
  std::mt19937_64 rng(24);
  std::vector<std::string> seqs;
  for (int i = 0; i < 16; ++i) seqs.push_back(random_dna(rng, 2000));
  const int k = 31;
  Runtime rt(Topology(8, 4));
  SeedIndex index(rt.topo(), {k, true, 64});
  build_index(rt, index, seqs, k);

  std::size_t total = 0;
  for (int r = 0; r < 8; ++r) total += index.local_distinct_seeds(r);
  const double mean = static_cast<double>(total) / 8.0;
  for (int r = 0; r < 8; ++r) {
    EXPECT_GT(index.local_distinct_seeds(r), mean * 0.9) << "rank " << r;
    EXPECT_LT(index.local_distinct_seeds(r), mean * 1.1) << "rank " << r;
  }
}

TEST(SeedIndex, LookupIsExactAndCanonicalAcrossRanksAndModes) {
  // Every lookup returns exactly the inserted hits and their total count, in
  // one canonical order: hit order — and so which hits survive the max-hits
  // cut — must not depend on the rank count (1 rank included), the
  // aggregation buffer size or the construction mode (i.e. on the order
  // entries reach their owner).
  std::mt19937_64 rng(25);
  std::vector<std::string> seqs;
  for (int i = 0; i < 24; ++i) seqs.push_back(random_dna(rng, 300));
  for (int i = 1; i < 24; i += 2)  // repeats: seeds with up to 12 hits
    seqs[static_cast<std::size_t>(i)].replace(40, 120, seqs[0].substr(100, 120));
  seqs.push_back("ACGTACGTACGTACGTACGTACGTACGT");  // seeds repeated in-target
  const int k = 17;
  const auto truth = ground_truth(seqs, k);

  struct Mode {
    bool aggregating;
    std::size_t S;
  };
  std::vector<std::vector<SeedHit>> reference;
  for (const int nranks : {1, 3, 8}) {
    for (const Mode m : {Mode{true, 1}, Mode{true, 1000}, Mode{false, 1}}) {
      Runtime rt(Topology(nranks, 2));
      SeedIndex index(rt.topo(), {k, m.aggregating, m.S});
      build_index(rt, index, seqs, k);
      EXPECT_EQ(index.total_entries(), truth.size());
      // One all-hits and one max-hits-2 lookup per distinct seed, issued by
      // the last rank so most of them are remote.
      std::vector<std::vector<SeedHit>> got;
      rt.run([&](Rank& r) {
        if (r.id() != nranks - 1) return;
        for (auto it = truth.begin(); it != truth.end();
             it = truth.upper_bound(it->first)) {
          const auto seed = *Kmer::from_ascii(it->first);
          for (const std::size_t max_hits : {1000, 2}) {
            got.emplace_back();
            EXPECT_EQ(index.lookup(r, seed, max_hits, got.back()),
                      truth.count(it->first));
          }
        }
      });
      if (reference.empty()) reference = got;
      EXPECT_EQ(got, reference) << nranks << " ranks, "
                                << (m.aggregating ? "S=" : "naive S=") << m.S;
    }
  }
  // The canonical lists are the true hit sets, truncated to a prefix.
  std::size_t i = 0;
  for (auto it = truth.begin(); it != truth.end();
       it = truth.upper_bound(it->first), i += 2) {
    std::vector<SeedHit> expect;
    for (auto [e, end] = truth.equal_range(it->first); e != end; ++e)
      expect.push_back(e->second);
    const auto& all = reference[i];
    const auto& cut = reference[i + 1];
    EXPECT_TRUE(std::is_permutation(all.begin(), all.end(), expect.begin(),
                                    expect.end()))
        << it->first;
    EXPECT_TRUE(std::equal(cut.begin(), cut.end(), all.begin(),
                           all.begin() + std::min<std::ptrdiff_t>(2, all.size())));
  }
}

/// Targets for the brute-force checks: random sequence, an exact repeat, an
/// inverted repeat (a segment and its reverse complement), and AACCGGTT
/// repeats, whose windows centred on a multiple of 4 are palindromes for
/// every even k.
std::vector<std::string> strand_mix_targets(std::mt19937_64& rng) {
  const std::string seg = random_dna(rng, 90);
  std::string pal;
  for (int i = 0; i < 12; ++i) pal += "AACCGGTT";
  return {random_dna(rng, 150) + seg + random_dna(rng, 40),
          random_dna(rng, 30) + mera::seq::reverse_complement(seg) +
              random_dna(rng, 60),
          seg + pal,
          pal + random_dna(rng, 70),
          random_dna(rng, 200)};
}

/// The documented within-subrun order: a fixed splitmix64 permutation of
/// targets, then position, then fragment.
auto documented_hit_order(const SeedHit& h) {
  std::uint64_t x = h.target_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return std::tuple{x ^ (x >> 31), h.t_pos, h.fragment_id};
}

TEST(SeedIndex, EveryOrientedLookupMatchesABruteForceMap) {
  // Oriented seed -> hits in the documented order, by brute force. Every
  // seed of the targets and its reverse complement (present or not) must
  // get exactly that list, total and max-hits cut, from the oriented lookup
  // and from both sides of the aligner's two-strand lookup; the marking
  // visitor must flag exactly the duplicated and the rc-indexed entries.
  std::mt19937_64 rng(61);
  const auto seqs = strand_mix_targets(rng);
  for (const int k : {4, 5, 20, 21, 31, 32, 63, 64}) {
    const auto truth = ground_truth(seqs, k);
    std::map<std::string, std::vector<SeedHit>> oriented;
    for (const auto& [key, hit] : truth) oriented[key].push_back(hit);
    for (auto& [key, hits] : oriented)
      std::ranges::sort(hits, {}, documented_hit_order);
    std::set<std::string> queries;
    bool palindromes = false;
    for (const auto& [key, hits] : oriented) {
      queries.insert(key);
      queries.insert(mera::seq::reverse_complement(key));
      palindromes |= key == mera::seq::reverse_complement(key);
    }
    EXPECT_EQ(palindromes, k % 2 == 0) << "k=" << k;
    const auto expect = [&](const std::string& q, std::size_t max_hits) {
      const auto it = oriented.find(q);
      if (it == oriented.end()) return std::pair{std::size_t{0}, std::vector<SeedHit>{}};
      const auto n = std::min(max_hits, it->second.size());
      return std::pair{it->second.size(),
                       std::vector<SeedHit>(it->second.begin(),
                                            it->second.begin() +
                                                static_cast<std::ptrdiff_t>(n))};
    };
    using Marked = std::tuple<std::uint32_t, std::uint32_t, bool, bool>;
    std::multiset<Marked> want_marked;
    for (const auto& [key, hits] : oriented) {
      const bool dup = hits.size() > 1;
      const bool rc = oriented.contains(mera::seq::reverse_complement(key));
      if (dup || rc)
        for (const SeedHit& h : hits) want_marked.insert({h.target_id, h.t_pos, dup, rc});
    }

    for (const bool aggregating : {false, true}) {
      for (const int nranks : {1, 4, 8}) {
        const std::string where = "k=" + std::to_string(k) + " ranks=" +
                                  std::to_string(nranks) +
                                  (aggregating ? " aggregating" : " naive");
        Runtime rt(Topology(nranks, 2));
        SeedIndex index(rt.topo(), {k, aggregating, 3});
        build_index(rt, index, seqs, k);
        ASSERT_EQ(index.total_entries(), truth.size()) << where;

        std::multiset<Marked> marked;
        std::mutex mu;
        rt.run([&](Rank& r) {
          index.for_each_local_marked_hit(
              r, [&](const SeedHit& h, bool dup, bool rc) {
                const std::scoped_lock lk(mu);
                marked.insert({h.target_id, h.t_pos, dup, rc});
              });
        });
        EXPECT_EQ(marked, want_marked) << where;

        rt.run([&](Rank& r) {
          if (r.id() != nranks - 1) return;
          for (const std::string& q : queries) {
            const auto seed = StrandedKmer::of(*Kmer::from_ascii(q));
            for (const std::size_t max_hits : {1000, 3}) {
              const auto [total, hits] = expect(q, max_hits);
              const auto [rc_total, rc_hits] =
                  expect(mera::seq::reverse_complement(q), max_hits);
              std::vector<SeedHit> got, got_fwd, got_rc;
              ASSERT_EQ(index.lookup(r, seed.fwd, max_hits, got), total)
                  << where << " " << q;
              EXPECT_EQ(got, hits) << where << " " << q;
              const auto totals =
                  index.lookup(r, seed, max_hits, got_fwd, &got_rc);
              EXPECT_EQ(totals[0], total) << where << " " << q;
              EXPECT_EQ(totals[1], rc_total) << where << " " << q;
              EXPECT_EQ(got_fwd, hits) << where << " " << q;
              EXPECT_EQ(got_rc, rc_hits) << where << " " << q;
            }
          }
        });
      }
    }
  }
}

TEST(SeedIndex, FragmentFlagsMatchABruteForceCount) {
  // single_copy_seeds: every seed of the fragment occurs once index-wide.
  // no_rc_seeds: no seed of the fragment has its reverse complement indexed
  // (a palindrome is its own).
  std::mt19937_64 rng(62);
  const auto seqs = strand_mix_targets(rng);
  std::vector<mera::seq::SeqRecord> targets;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    targets.push_back({"t" + std::to_string(i), seqs[i], ""});
  for (const int k : {4, 5, 20, 21, 31, 32, 63, 64}) {
    const auto counts = mera::testutil::seed_counts(seqs, k);
    for (const bool aggregating : {false, true}) {
      for (const int nranks : {1, 4, 8}) {
        Runtime rt(Topology(nranks, 2));
        mera::core::IndexConfig ic;
        ic.k = k;
        ic.aggregating_stores = aggregating;
        ic.buffer_S = 3;
        ic.fragment_len = 100;
        const auto ref = mera::core::IndexedReference::build(rt, targets, ic);
        const auto& store = ref.targets();
        std::size_t no_rc = 0;
        for (std::uint32_t fid = 0; fid < store.num_fragments(); ++fid) {
          const auto& f = store.fragment_unsync(fid);
          bool single = true, rc_free = true;
          mera::seq::for_each_seed(
              std::string_view(seqs[f.parent_target]).substr(f.parent_offset, f.length),
              k, [&](std::size_t, const Kmer& m) {
                single &= counts.at(m.to_string()) == 1;
                rc_free &= !counts.contains(m.reverse_complement().to_string());
              });
          const std::string where = "k=" + std::to_string(k) + " ranks=" +
                                    std::to_string(nranks) + " fragment " +
                                    std::to_string(fid);
          EXPECT_EQ(f.single_copy_seeds.load(), single) << where;
          EXPECT_EQ(f.no_rc_seeds.load(), rc_free) << where;
          no_rc += rc_free ? 1 : 0;
        }
        // Both values occur (short seeds all meet their reverse complement).
        if (k >= 20) {
          EXPECT_GT(no_rc, 0u) << "k=" << k;
        }
        EXPECT_LT(no_rc, store.num_fragments()) << "k=" << k;
      }
    }
  }
}

TEST(SeedIndex, BuildAllocatesLittleBeyondTheLandedEntries) {
  // The landed entries are the index: finish_insert may add its directory
  // and filter (at most ~12 bytes per distinct seed), but no copy of the
  // 40-byte entries, their keys or their hits.
  std::mt19937_64 rng(29);
  std::vector<std::string> seqs;
  for (int i = 0; i < 8; ++i) seqs.push_back(random_dna(rng, 26000));
  const int k = 31;
  Runtime rt(Topology(4, 2));
  SeedIndex index(rt.topo(), {k, true, 1000});
  std::int64_t before = 0;
  build_index(rt, index, seqs, k, [&](Rank& r) {
    r.barrier();
    if (r.id() == 0) {
      before = g_live_bytes.load();
      g_peak_bytes.store(before);
    }
    r.barrier();
  });
  const std::int64_t peak = g_peak_bytes.load();
  ASSERT_GE(index.total_entries(), 200000u);
  const double landed =
      static_cast<double>(sizeof(SeedEntry) * index.total_entries());
  EXPECT_LE(static_cast<double>(peak - before), 0.3 * landed)
      << "peak extra " << peak - before << " B over " << landed
      << " B of landed entries";
}

TEST(SeedIndex, RejectsBadOptions) {
  const Topology topo(2, 2);
  EXPECT_THROW(SeedIndex(topo, {0, true, 10}), std::invalid_argument);
  EXPECT_THROW(SeedIndex(topo, {65, true, 10}), std::invalid_argument);
  EXPECT_THROW(SeedIndex(topo, {31, true, 0}), std::invalid_argument);
}

}  // namespace
