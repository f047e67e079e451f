// Cache persistence & warm start (the `ctest -L cache` equivalence tier).
//
// The contract under test: snapshotting a session's software caches and
// restoring them in another session/process changes seconds, never bytes.
//   1. round trip    — save -> load -> save reproduces the snapshot byte for
//                      byte (entries, per-entry hit counts, counters, CLOCK /
//                      LRU order), for randomized cache contents;
//   2. rejection     — fingerprint/topology/cost-model/capacity mismatches
//                      and truncated or corrupted files are refused, caches
//                      untouched;
//   3. bit-identity  — a warm-started session emits exactly the records,
//                      SAM stream and work stats of a cold one, across
//                      K in {1, 2, 4} shards on the scalar and auto tiers,
//                      while doing strictly less remote-lookup work;
//   4. counter baseline — loaded counters are cumulative session history,
//                      and per-batch deltas report only post-load activity
//                      (the load_caches re-seeding decision, pinned).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/cache_snapshot.hpp"
#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using namespace mera;
using namespace mera::cache;
using mera::align::SwIsa;
using mera::core::AlignmentRecord;
using mera::dht::SeedHit;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::Kmer;
using mera::seq::SeqRecord;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth,
                       std::uint64_t seed = 11) {
  Workload w;
  seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = 0.03;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = depth;
  rp.error_rate = 0.004;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(genome, rp);
  return w;
}

core::IndexConfig small_index(int k = 21) {
  core::IndexConfig ic;
  ic.k = k;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

std::string random_dna(std::mt19937_64& rng, int len) {
  static constexpr char kBases[] = "ACGT";
  std::string s(static_cast<std::size_t>(len), 'A');
  for (auto& c : s) c = kBases[rng() % 4];
  return s;
}

/// The stats fields that must be byte-identical between a cold and a warm
/// run. Cache hit counters and the modeled communication seconds they save
/// are exactly what warm starting is SUPPOSED to change, so they are
/// asserted separately (warm strictly does less remote work).
void expect_invariant_stats_equal(const core::PipelineStats& cold,
                                  const core::PipelineStats& warm) {
  EXPECT_EQ(cold.reads_processed, warm.reads_processed);
  EXPECT_EQ(cold.reads_aligned, warm.reads_aligned);
  EXPECT_EQ(cold.alignments_reported, warm.alignments_reported);
  EXPECT_EQ(cold.seed_lookups, warm.seed_lookups);
  EXPECT_EQ(cold.target_fetches, warm.target_fetches);
  EXPECT_EQ(cold.sw_calls, warm.sw_calls);
  EXPECT_EQ(cold.memcmp_calls, warm.memcmp_calls);
  EXPECT_EQ(cold.exact_match_reads, warm.exact_match_reads);
  EXPECT_EQ(cold.hits_truncated, warm.hits_truncated);
}

class CachePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mera_cache_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// 1. Snapshot round trips (randomized property tests)
// ---------------------------------------------------------------------------

/// Fill a seed cache with pseudo-random contents: entries beyond capacity
/// (forcing clock evictions) and a random sprinkle of lookups (building up
/// per-entry hit counts and counters).
void fill_seed_cache_randomly(SeedIndexCache& cache, int nnodes,
                              std::uint64_t rng_seed, int inserts = 300) {
  std::mt19937_64 rng(rng_seed);
  std::vector<Kmer> inserted;
  for (int i = 0; i < inserts; ++i) {
    const Kmer m = *Kmer::from_ascii(random_dna(rng, 21));
    const int node = static_cast<int>(rng() % static_cast<std::uint64_t>(nnodes));
    std::vector<SeedHit> hits;
    const std::size_t nhits = rng() % 5;
    for (std::size_t h = 0; h < nhits; ++h)
      hits.push_back(SeedHit{static_cast<std::uint32_t>(rng() % 1000),
                             static_cast<std::uint32_t>(rng() % 100),
                             static_cast<std::uint32_t>(rng() % 100000)});
    cache.insert(node, m, hits, nhits + rng() % 50);
    inserted.push_back(m);
    if (!inserted.empty() && rng() % 2 == 0) {
      std::vector<SeedHit> out;
      std::size_t total = 0;
      cache.lookup(static_cast<int>(rng() % static_cast<std::uint64_t>(nnodes)),
                   inserted[rng() % inserted.size()], 8, out, total);
    }
  }
}

void fill_target_cache_randomly(TargetCache& cache, int nnodes,
                                std::uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);
  for (int i = 0; i < 200; ++i) {
    const auto gid = static_cast<std::uint32_t>(rng() % 500);
    const int node = static_cast<int>(rng() % static_cast<std::uint64_t>(nnodes));
    if (rng() % 2 == 0) cache.contains(node, gid);
    cache.insert(node, gid, 64 + rng() % 4096);
  }
}

TEST(CacheSnapshotRoundTrip, SeedCacheSaveLoadSaveIsByteStable) {
  const Topology topo(8, 4);  // 2 nodes
  for (const std::uint64_t rng_seed : {1ull, 2ull, 3ull, 99ull}) {
    SeedIndexCache a(topo, {.capacity_per_node = 64});
    fill_seed_cache_randomly(a, topo.nnodes(), rng_seed);

    std::ostringstream s1(std::ios::binary);
    a.save(s1);
    SeedIndexCache b(topo, {.capacity_per_node = 64});
    std::istringstream in(s1.str(), std::ios::binary);
    b.load(in);
    std::ostringstream s2(std::ios::binary);
    b.save(s2);

    EXPECT_EQ(s1.str(), s2.str()) << "rng_seed=" << rng_seed;
    EXPECT_EQ(a.counters(), b.counters());
    EXPECT_EQ(a.entries(), b.entries());
  }
}

TEST(CacheSnapshotRoundTrip, TargetCacheSaveLoadSaveIsByteStable) {
  const Topology topo(8, 4);
  for (const std::uint64_t rng_seed : {1ull, 2ull, 3ull, 99ull}) {
    TargetCache a(topo, {.capacity_bytes_per_node = 1u << 16});
    fill_target_cache_randomly(a, topo.nnodes(), rng_seed);

    std::ostringstream s1(std::ios::binary);
    a.save(s1);
    TargetCache b(topo, {.capacity_bytes_per_node = 1u << 16});
    std::istringstream in(s1.str(), std::ios::binary);
    b.load(in);
    std::ostringstream s2(std::ios::binary);
    b.save(s2);

    EXPECT_EQ(s1.str(), s2.str()) << "rng_seed=" << rng_seed;
    EXPECT_EQ(a.counters(), b.counters());
    EXPECT_EQ(a.entries(), b.entries());
  }
}

TEST(CacheSnapshotRoundTrip, LoadedSeedCacheServesTheSavedHits) {
  const Topology topo(2, 2);  // 1 node
  SeedIndexCache a(topo, {.capacity_per_node = 16});
  const Kmer m = *Kmer::from_ascii("ACGTACGTACGTACGTACGTA");
  const std::vector<SeedHit> hits{{7, 3, 41}, {9, 4, 77}};
  a.insert(0, m, hits, 5);

  std::ostringstream os(std::ios::binary);
  a.save(os);
  SeedIndexCache b(topo, {.capacity_per_node = 16});
  std::istringstream is(os.str(), std::ios::binary);
  b.load(is);

  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(b.lookup(0, m, 8, out, total));
  EXPECT_EQ(total, 5u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], hits[0]);
  EXPECT_EQ(out[1], hits[1]);
}

TEST(CacheSnapshotRoundTrip, SeedSnapshotIntoTheSameCapacityRestoresExactly) {
  // 1 << 14 entries per node is 1024 sets per node; 40K inserts over 2
  // nodes overflow every set, so hands, reference bits and evictions are in
  // play.
  const Topology topo(8, 4);
  const SeedIndexCache::Options opt{.capacity_per_node = std::size_t{1} << 14};
  SeedIndexCache a(topo, opt);
  fill_seed_cache_randomly(a, topo.nnodes(), 5, 40000);
  ASSERT_GT(a.counters().evictions, 0u);

  std::ostringstream s1(std::ios::binary);
  a.save(s1);
  SeedIndexCache b(topo, opt);
  std::istringstream in(s1.str(), std::ios::binary);
  b.load(in);
  std::ostringstream s2(std::ios::binary);
  b.save(s2);
  EXPECT_EQ(s1.str(), s2.str());
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.entries(), b.entries());

  // Same future: the same further traffic leaves both caches identical.
  fill_seed_cache_randomly(a, topo.nnodes(), 6, 20000);
  fill_seed_cache_randomly(b, topo.nnodes(), 6, 20000);
  std::ostringstream s3(std::ios::binary), s4(std::ios::binary);
  a.save(s3);
  b.save(s4);
  EXPECT_EQ(s3.str(), s4.str());
}

TEST(CacheSnapshotRoundTrip, SectionOfAnotherCapacityIsRefusedUntouched) {
  // load() restores exactly or throws: a section from a cache with another
  // set count, a set over its share, or a node over its byte budget is
  // refused, and the cache keeps what it held.
  const Topology topo(2, 2);  // 1 node
  const auto save_bytes = [](const auto& cache) {
    std::ostringstream os(std::ios::binary);
    cache.save(os);
    return os.str();
  };
  const auto expect_refused = [&](const auto& from, auto& into) {
    const std::string before = save_bytes(into);
    std::istringstream is(save_bytes(from), std::ios::binary);
    EXPECT_THROW(into.load(is), CacheSnapshotError);
    EXPECT_EQ(save_bytes(into), before);
  };
  SeedIndexCache seed64(topo, {.capacity_per_node = 64});
  SeedIndexCache seed32(topo, {.capacity_per_node = 32});
  fill_seed_cache_randomly(seed64, 1, 30);
  fill_seed_cache_randomly(seed32, 1, 31);
  expect_refused(seed64, seed32);  // 4 sets into 2
  // 18 and 17 entries are both 2 sets (9 + 9 and 9 + 8 ways).
  SeedIndexCache seed18(topo, {.capacity_per_node = 18});
  SeedIndexCache seed17(topo, {.capacity_per_node = 17});
  fill_seed_cache_randomly(seed18, 1, 32);
  expect_refused(seed18, seed17);
  TargetCache big(topo, {.capacity_bytes_per_node = 1u << 16});
  TargetCache small(topo, {.capacity_bytes_per_node = 1u << 12});
  fill_target_cache_randomly(big, 1, 33);
  fill_target_cache_randomly(small, 1, 34);
  expect_refused(big, small);
}

TEST(CacheSnapshotRoundTrip, KmerWordsRoundTripAndRejectCorruptEncodings) {
  const Kmer m = *Kmer::from_ascii("ACGTACGTACGTACGTACGTA");
  const auto back = Kmer::from_words(m.k(), m.words());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);

  auto words = m.words();
  words[1] |= 1ull << 62;  // bit above 2k for k=21... definitely out of range
  EXPECT_FALSE(Kmer::from_words(m.k(), words).has_value());
  EXPECT_FALSE(Kmer::from_words(0, m.words()).has_value());
  EXPECT_FALSE(Kmer::from_words(65, m.words()).has_value());
}

// ---------------------------------------------------------------------------
// 2. File-level validation: wrong-index / damaged snapshots are rejected
// ---------------------------------------------------------------------------

using CacheSnapshotFileTest = CachePersistTest;

SnapshotMeta test_meta() {
  SnapshotMeta m;
  m.k = 21;
  m.nranks = 8;
  m.ppn = 4;
  m.nnodes = 2;
  m.max_hits_per_seed = 32;
  m.cost_model = pgas::CostModel::cray_xc30_like();
  m.reference_fingerprint = 0xFEEDFACEULL;
  return m;
}

TEST_F(CacheSnapshotFileTest, RoundTripsThroughAFile) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 7);
  fill_target_cache_randomly(target, topo.nnodes(), 8);

  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  SeedIndexCache seed2(topo, {.capacity_per_node = 64});
  TargetCache target2(topo, {.capacity_bytes_per_node = 1u << 16});
  load_caches(path("snap.mcache"), test_meta(), &seed2, &target2);
  EXPECT_EQ(seed.counters(), seed2.counters());
  EXPECT_EQ(target.counters(), target2.counters());
  EXPECT_EQ(seed.entries(), seed2.entries());
  EXPECT_EQ(target.entries(), target2.entries());
}

TEST_F(CacheSnapshotFileTest, RejectsEveryMetaMismatch) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 9);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  const auto save_bytes = [](const auto& cache) {
    std::ostringstream os(std::ios::binary);
    cache.save(os);
    return os.str();
  };
  const auto expect_reject = [&](SnapshotMeta m, const char* why,
                                 std::size_t seed_capacity = 64,
                                 std::size_t target_capacity = 1u << 16,
                                 const char* names = "") {
    SeedIndexCache s2(topo, {.capacity_per_node = seed_capacity});
    TargetCache t2(topo, {.capacity_bytes_per_node = target_capacity});
    fill_seed_cache_randomly(s2, topo.nnodes(), 20);
    fill_target_cache_randomly(t2, topo.nnodes(), 21);
    const std::string s_before = save_bytes(s2);
    const std::string t_before = save_bytes(t2);
    try {
      load_caches(path("snap.mcache"), m, &s2, &t2);
      ADD_FAILURE() << why << ": snapshot was accepted";
    } catch (const CacheSnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << why << ": " << e.what();
    }
    // A rejected snapshot must leave the caches untouched.
    EXPECT_EQ(save_bytes(s2), s_before) << why;
    EXPECT_EQ(save_bytes(t2), t_before) << why;
  };

  SnapshotMeta m = test_meta();
  m.k = 31;
  expect_reject(m, "k mismatch");
  m = test_meta();
  m.nranks = 4;
  m.ppn = 2;
  expect_reject(m, "topology mismatch");
  m = test_meta();
  m.max_hits_per_seed = 64;  // stored hit lists were clipped to 32
  expect_reject(m, "max-hits mismatch");
  m = test_meta();
  m.cost_model.net_latency_s *= 2;
  expect_reject(m, "cost-model mismatch");
  m = test_meta();
  m.reference_fingerprint ^= 1;
  expect_reject(m, "reference fingerprint mismatch");
  // A cache is restored exactly or not at all: another capacity is refused,
  // and the message names both.
  expect_reject(test_meta(), "smaller seed cache", 32, 1u << 16,
                "seed cache capacity mismatch (snapshot 64 entries per node, "
                "session 32 entries per node)");
  expect_reject(test_meta(), "larger seed cache", 1u << 12, 1u << 16,
                "seed cache capacity mismatch (snapshot 64 entries per node, "
                "session 4096 entries per node)");
  expect_reject(test_meta(), "smaller target cache", 64, 1u << 12,
                "target cache capacity mismatch (snapshot 65536 bytes per "
                "node, session 4096 bytes per node)");
}

TEST_F(CacheSnapshotFileTest, RejectsMissingTruncatedAndCorruptFiles) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 10);
  fill_target_cache_randomly(target, topo.nnodes(), 11);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  SeedIndexCache s2(topo, {.capacity_per_node = 64});
  TargetCache t2(topo, {.capacity_bytes_per_node = 1u << 16});

  // Missing file.
  EXPECT_THROW(load_caches(path("nope.mcache"), test_meta(), &s2, &t2),
               CacheSnapshotError);

  // Truncated: drop the tail of the payload.
  {
    std::ifstream in(path("snap.mcache"), std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    ASSERT_GT(bytes.size(), 32u);
    std::ofstream out(path("trunc.mcache"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 25));
  }
  EXPECT_THROW(load_caches(path("trunc.mcache"), test_meta(), &s2, &t2),
               CacheSnapshotError);

  // Corrupted: flip one payload byte (checksum must catch it).
  {
    std::ifstream in(path("snap.mcache"), std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    bytes[bytes.size() - 3] ^= 0x40;
    std::ofstream out(path("corrupt.mcache"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_caches(path("corrupt.mcache"), test_meta(), &s2, &t2),
               CacheSnapshotError);

  // Not a snapshot at all.
  {
    std::ofstream out(path("junk.mcache"), std::ios::binary);
    out << "definitely not a cache snapshot";
  }
  EXPECT_THROW(load_caches(path("junk.mcache"), test_meta(), &s2, &t2),
               CacheSnapshotError);

  // After all those rejections the caches are still untouched...
  EXPECT_EQ(s2.entries(), 0u);
  EXPECT_EQ(t2.entries(), 0u);
  // ...and the intact file still loads.
  EXPECT_NO_THROW(load_caches(path("snap.mcache"), test_meta(), &s2, &t2));
  EXPECT_EQ(s2.entries(), seed.entries());
}

TEST_F(CacheSnapshotFileTest, VersionOneSnapshotIsRefusedByName) {
  // Retired versions are refused by name before anything else is read:
  // version 2 changed the seed section's layout, version 3 the order of its
  // cached hit lists, version 4 the layout again (per set instead of per
  // lock stripe), and version 5 added the caches' capacities to the header.
  // Each file is a filled current snapshot with only its version field
  // rewritten.
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 14);
  fill_target_cache_randomly(target, topo.nnodes(), 15);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    {
      std::fstream f(path("snap.mcache"),
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(sizeof(std::uint32_t));  // just past the magic
      snapio::put<std::uint32_t>(f, version);
    }
    SeedIndexCache seed2(topo, {.capacity_per_node = 64});
    TargetCache target2(topo, {.capacity_bytes_per_node = 1u << 16});
    try {
      load_caches(path("snap.mcache"), test_meta(), &seed2, &target2);
      FAIL() << "a version-" << version << " snapshot was accepted";
    } catch (const CacheSnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(seed2.entries(), 0u);
    EXPECT_EQ(target2.entries(), 0u);
  }
}

TEST_F(CacheSnapshotFileTest, SectionsLoadIndependentlyOfDisabledCaches) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 12);
  fill_target_cache_randomly(target, topo.nnodes(), 13);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  // A session running without the seed cache skips its section (by length
  // prefix, without deserializing it) and still warms its target cache.
  TargetCache t2(topo, {.capacity_bytes_per_node = 1u << 16});
  load_caches(path("snap.mcache"), test_meta(), nullptr, &t2);
  EXPECT_EQ(t2.counters(), target.counters());
  EXPECT_EQ(t2.entries(), target.entries());

  // And the mirror image: seed only, target section skipped.
  SeedIndexCache s2(topo, {.capacity_per_node = 64});
  load_caches(path("snap.mcache"), test_meta(), &s2, nullptr);
  EXPECT_EQ(s2.counters(), seed.counters());
  EXPECT_EQ(s2.entries(), seed.entries());
}

// ---------------------------------------------------------------------------
// 2b. Atomic save: a crash mid-save never damages the previous snapshot
// ---------------------------------------------------------------------------

using AtomicSaveTest = CachePersistTest;

std::string file_bytes(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(AtomicSaveTest, SaveLeavesNoTempFileBehind) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 21);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);
  EXPECT_TRUE(std::filesystem::exists(path("snap.mcache")));
  EXPECT_FALSE(std::filesystem::exists(path("snap.mcache.tmp")));
}

TEST_F(AtomicSaveTest, FailedSaveKeepsThePreviousSnapshotIntact) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 22);
  fill_target_cache_randomly(target, topo.nnodes(), 23);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);
  const std::string good = file_bytes(path("snap.mcache"));

  // Make the NEXT save fail at its very first step by squatting a directory
  // on the temp path. Pre-fix, save opened the final path with trunc and a
  // failure at any later point left a damaged snapshot; now the final file
  // must never even be opened.
  std::filesystem::create_directory(path("snap.mcache.tmp"));
  fill_seed_cache_randomly(seed, topo.nnodes(), 24);  // new state to save
  EXPECT_THROW(save_caches(path("snap.mcache"), test_meta(), &seed, &target),
               CacheSnapshotError);
  std::filesystem::remove(path("snap.mcache.tmp"));

  EXPECT_EQ(file_bytes(path("snap.mcache")), good)
      << "a failed save must not touch the existing snapshot";
  SeedIndexCache s2(topo, {.capacity_per_node = 64});
  TargetCache t2(topo, {.capacity_bytes_per_node = 1u << 16});
  EXPECT_NO_THROW(
      load_caches(path("snap.mcache"), test_meta(), &s2, &t2));
}

TEST_F(AtomicSaveTest, StaleTempFileFromACrashIsIgnoredAndReplaced) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 64});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 16});
  fill_seed_cache_randomly(seed, topo.nnodes(), 25);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  // What a kill -9 mid-write leaves behind: a truncated temp file. It must
  // neither break loading nor survive the next successful save.
  {
    std::ofstream out(path("snap.mcache.tmp"), std::ios::binary);
    out << "half a snapsh";
  }
  SeedIndexCache s2(topo, {.capacity_per_node = 64});
  TargetCache t2(topo, {.capacity_bytes_per_node = 1u << 16});
  EXPECT_NO_THROW(
      load_caches(path("snap.mcache"), test_meta(), &s2, &t2));
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);
  EXPECT_FALSE(std::filesystem::exists(path("snap.mcache.tmp")));
  EXPECT_NO_THROW(
      load_caches(path("snap.mcache"), test_meta(), &s2, &t2));
}

TEST_F(AtomicSaveTest, KillNineDuringSaveLeavesALoadableSnapshot) {
  const Topology topo(8, 4);
  SeedIndexCache seed(topo, {.capacity_per_node = 256});
  TargetCache target(topo, {.capacity_bytes_per_node = 1u << 20});
  fill_seed_cache_randomly(seed, topo.nnodes(), 26);
  fill_target_cache_randomly(target, topo.nnodes(), 27);
  save_caches(path("snap.mcache"), test_meta(), &seed, &target);

  // A child process re-saves the snapshot in a tight loop; the parent
  // SIGKILLs it at an arbitrary point. Whatever instant the kill lands —
  // mid-payload-write, between write and rename — the visible file must be
  // either the old or the new COMPLETE snapshot, because the payload only
  // ever reaches the final path via rename(2).
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (;;) {
      try {
        save_caches(path("snap.mcache"), test_meta(), &seed, &target);
      } catch (...) {
        _exit(1);
      }
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  SeedIndexCache s2(topo, {.capacity_per_node = 256});
  TargetCache t2(topo, {.capacity_bytes_per_node = 1u << 20});
  EXPECT_NO_THROW(load_caches(path("snap.mcache"), test_meta(), &s2, &t2))
      << "kill -9 during save_caches corrupted the snapshot";
  EXPECT_EQ(s2.entries(), seed.entries());
  EXPECT_EQ(t2.entries(), target.entries());
}

// ---------------------------------------------------------------------------
// 3. Cold vs warm bit-identity (the acceptance contract)
// ---------------------------------------------------------------------------

using WarmStartTest = CachePersistTest;

core::SessionConfig session_config(SwIsa isa) {
  core::SessionConfig sc;
  sc.seed_cache_capacity = 1u << 14;
  sc.target_cache_bytes = 8u << 20;
  sc.extension.isa = isa;
  return sc;
}

/// Run the two-batch stream through `session`, tee-ing records and SAM.
struct RunOutput {
  std::vector<AlignmentRecord> records;
  std::string sam;
  core::PipelineStats stats;
};

RunOutput run_stream(Runtime& rt, core::AlignSession& session,
                     const core::IndexedReference& ref,
                     const std::vector<SeqRecord>& b1,
                     const std::vector<SeqRecord>& b2) {
  RunOutput out;
  core::VectorSink vec(rt.nranks());
  std::ostringstream sam_text;
  core::SamStreamSink sam(sam_text, ref);
  core::TeeSink tee({&vec, &sam});
  out.stats += session.align_batch(rt, b1, tee).stats;
  out.stats += session.align_batch(rt, b2, tee).stats;
  out.records = vec.take();
  out.sam = sam_text.str();
  return out;
}

TEST_F(WarmStartTest, MonolithicWarmStartIsBitIdenticalAllKernels) {
  const auto w = make_workload(30'000, 1.5);
  const auto mid = w.reads.begin() + static_cast<std::ptrdiff_t>(w.reads.size() / 2);
  const std::vector<SeqRecord> b1(w.reads.begin(), mid);
  const std::vector<SeqRecord> b2(mid, w.reads.end());

  Runtime rt(Topology(8, 4));  // 2 nodes: off-node lookups exist to cache
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());

  for (const SwIsa isa : {SwIsa::kScalar, SwIsa::kAuto}) {
    SCOPED_TRACE(std::string("isa=") + isa_name(isa));
    const std::string snap = path(std::string("isa_") + isa_name(isa));

    core::AlignSession cold(ref, session_config(isa));
    const RunOutput cold_out = run_stream(rt, cold, ref, b1, b2);
    ASSERT_GT(cold_out.records.size(), 0u);
    cold.save_caches(rt, snap);

    core::AlignSession warm(ref, session_config(isa));
    warm.load_caches(rt, snap);
    const RunOutput warm_out = run_stream(rt, warm, ref, b1, b2);

    // Bit-identity: records, SAM bytes, and every invariant stat.
    ASSERT_EQ(cold_out.records.size(), warm_out.records.size());
    for (std::size_t i = 0; i < cold_out.records.size(); ++i)
      ASSERT_EQ(cold_out.records[i], warm_out.records[i]) << "record " << i;
    EXPECT_EQ(cold_out.sam, warm_out.sam);
    expect_invariant_stats_equal(cold_out.stats, warm_out.stats);

    // ...while the warm session does strictly less remote-lookup work.
    EXPECT_GT(warm_out.stats.seed_cache_hits, cold_out.stats.seed_cache_hits);
    EXPECT_GT(warm_out.stats.target_cache_hits,
              cold_out.stats.target_cache_hits);
    EXPECT_LT(warm_out.stats.comm_lookup_s, cold_out.stats.comm_lookup_s);
  }
}

TEST_F(WarmStartTest, WarmStartIsBitIdenticalWhenLookupsTruncate) {
  // A clipping max_hits_per_seed exercises the truncation counter on the
  // cache-hit path: a lookup served by the warm cache must count as
  // truncated exactly like the cold index lookup it replays. The warm side
  // rebuilds the index, as a restarted process would: clipped hit lists
  // are in canonical index order, so the snapshot's lists still match it.
  const auto w = make_workload(30'000, 1.5);
  Runtime rt(Topology(8, 4));
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());
  const auto ref2 = core::IndexedReference::build(rt, w.contigs, small_index());

  core::SessionConfig sc = session_config(SwIsa::kScalar);
  sc.max_hits_per_seed = 1;
  sc.exact_match = false;  // the clipped-to-1 candidate order must replay

  core::AlignSession cold(ref, sc);
  const RunOutput cold_out = run_stream(rt, cold, ref, w.reads, w.reads);
  ASSERT_GT(cold_out.stats.hits_truncated, 0u);
  cold.save_caches(rt, path("snap"));

  core::AlignSession warm(ref2, sc);
  warm.load_caches(rt, path("snap"));
  const RunOutput warm_out = run_stream(rt, warm, ref2, w.reads, w.reads);

  EXPECT_EQ(cold_out.sam, warm_out.sam);
  expect_invariant_stats_equal(cold_out.stats, warm_out.stats);
  EXPECT_GT(warm_out.stats.seed_cache_hits, cold_out.stats.seed_cache_hits);
}

TEST_F(WarmStartTest, ShardedWarmStartIsBitIdenticalAllKernelsAllK) {
  const auto w = make_workload(30'000, 1.2);
  const auto mid = w.reads.begin() + static_cast<std::ptrdiff_t>(w.reads.size() / 2);
  const std::vector<SeqRecord> b1(w.reads.begin(), mid);
  const std::vector<SeqRecord> b2(mid, w.reads.end());

  Runtime rt(Topology(8, 4));
  for (const int K : {1, 2, 4}) {
    const auto ref =
        shard::ShardedReference::build(rt, w.contigs, K, small_index());
    ASSERT_EQ(ref.num_shards(), K);
    for (const SwIsa isa : {SwIsa::kScalar, SwIsa::kAuto}) {
      SCOPED_TRACE("K=" + std::to_string(K) + " isa=" + isa_name(isa));
      const std::string snap =
          path("K" + std::to_string(K) + "_" + isa_name(isa));

      const auto run = [&](shard::ShardedAlignSession& session) {
        RunOutput out;
        core::VectorSink vec(rt.nranks());
        std::ostringstream sam_text;
        core::SamStreamSink sam(sam_text, ref.sam_targets(), rt.nranks());
        core::TeeSink tee({&vec, &sam});
        out.stats += session.align_batch(rt, b1, tee).stats;
        out.stats += session.align_batch(rt, b2, tee).stats;
        out.records = vec.take();
        out.sam = sam_text.str();
        return out;
      };
      const auto session_hits = [](const shard::ShardedAlignSession& s) {
        std::uint64_t hits = 0;
        for (int i = 0; i < s.num_shards(); ++i)
          hits += s.shard_session(i).seed_cache_counters().hits;
        return hits;
      };

      shard::ShardedAlignSession cold(ref, session_config(isa));
      const RunOutput cold_out = run(cold);
      ASSERT_GT(cold_out.records.size(), 0u);
      cold.save_caches(rt, snap);

      shard::ShardedAlignSession warm(ref, session_config(isa));
      warm.load_caches(rt, snap);
      const std::uint64_t hits_at_load = session_hits(warm);
      const RunOutput warm_out = run(warm);

      ASSERT_EQ(cold_out.records.size(), warm_out.records.size());
      for (std::size_t i = 0; i < cold_out.records.size(); ++i)
        ASSERT_EQ(cold_out.records[i], warm_out.records[i]) << "record " << i;
      EXPECT_EQ(cold_out.sam, warm_out.sam);
      expect_invariant_stats_equal(cold_out.stats, warm_out.stats);
      EXPECT_GT(session_hits(warm) - hits_at_load, session_hits(cold));
    }
  }
}

TEST_F(WarmStartTest, SnapshotOfDifferentShardingIsRejected) {
  const auto w = make_workload(20'000, 0.8);
  Runtime rt(Topology(4, 2));
  const auto ref2 = shard::ShardedReference::build(rt, w.contigs, 2, small_index());
  const auto ref4 = shard::ShardedReference::build(rt, w.contigs, 4, small_index());

  shard::ShardedAlignSession s4(ref4, core::SessionConfig{});
  core::CountingSink sink;
  s4.align_batch(rt, w.reads, sink);
  s4.save_caches(rt, path("snap4"));

  shard::ShardedAlignSession s2(ref2, core::SessionConfig{});
  EXPECT_THROW(s2.load_caches(rt, path("snap4")), CacheSnapshotError);

  // Same K but a different cost model: every shard file refuses.
  Runtime zero_rt(Topology(4, 2), pgas::CostModel::zero());
  shard::ShardedAlignSession s4b(ref4, core::SessionConfig{});
  EXPECT_THROW(s4b.load_caches(zero_rt, path("snap4")), CacheSnapshotError);

  // Missing directory.
  shard::ShardedAlignSession s4c(ref4, core::SessionConfig{});
  EXPECT_THROW(s4c.load_caches(rt, path("never_saved")), CacheSnapshotError);
}

// ---------------------------------------------------------------------------
// 4. Counter baseline across load_caches (the reset-ambiguity fix, pinned)
// ---------------------------------------------------------------------------

TEST_F(WarmStartTest, LoadedCountersSeedTheSessionBaseline) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(8, 4));
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());

  core::AlignSession cold(ref, session_config(SwIsa::kScalar));
  core::CountingSink sink;
  cold.align_batch(rt, w.reads, sink);
  const auto saved_seed = cold.seed_cache_counters();
  const auto saved_target = cold.target_cache_counters();
  ASSERT_GT(saved_seed.insertions, 0u);
  cold.save_caches(rt, path("snap"));

  core::AlignSession warm(ref, session_config(SwIsa::kScalar));
  warm.load_caches(rt, path("snap"));
  // Decision (documented on load_caches): restored counters are cumulative
  // session history — the warm session's totals START at the saved totals...
  EXPECT_EQ(warm.seed_cache_counters(), saved_seed);
  EXPECT_EQ(warm.target_cache_counters(), saved_target);

  // ...and the per-batch delta baseline is re-seeded at load, so the first
  // warm batch reports exactly its own activity, never the imported history.
  const auto loaded_seed = warm.seed_cache_counters();
  const auto loaded_target = warm.target_cache_counters();
  const auto res = warm.align_batch(rt, w.reads, sink);
  EXPECT_EQ(res.seed_cache, warm.seed_cache_counters() - loaded_seed);
  EXPECT_EQ(res.target_cache, warm.target_cache_counters() - loaded_target);
  // Regression guard for the original bug: a delta that accidentally
  // includes the loaded history would at least double the miss count of an
  // identical batch replayed against a fully warm cache.
  EXPECT_LE(res.seed_cache.misses, saved_seed.misses);
}

// ---------------------------------------------------------------------------
// Concurrent save during a parallel batch (the TSan gate)
// ---------------------------------------------------------------------------

TEST_F(WarmStartTest, SaveDuringParallelShardBatchIsRaceFree) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(4, 2));  // 2 nodes: the caches see real traffic
  const auto ref = shard::ShardedReference::build(rt, w.contigs, 2, small_index());
  shard::ShardedSessionConfig cfg;
  cfg.shard_parallelism = 2;
  shard::ShardedAlignSession session(ref, cfg);

  // Snapshot repeatedly while a parallel batch is in flight: every cache
  // shard is serialized under its own lock, so the saver and the aligning
  // ranks may interleave freely (the snapshot content is whatever state it
  // caught — still a valid, loadable snapshot).
  std::thread saver([&] {
    for (int i = 0; i < 5; ++i)
      session.save_caches(rt, path("live" + std::to_string(i)));
  });
  core::CountingSink sink;
  session.align_batch(rt, w.reads, sink);
  saver.join();

  shard::ShardedAlignSession fresh(ref, core::SessionConfig{});
  EXPECT_NO_THROW(fresh.load_caches(rt, path("live4")));
}

}  // namespace
