#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"

// Global allocation counter, armed only around the code a test measures.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: at a call site that got `p` from operator new, an inlined
// free() trips GCC's -Wmismatched-new-delete, though this operator new
// allocates with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace mera::cache;
using mera::dht::SeedHit;
using mera::pgas::Topology;
using mera::seq::Kmer;

Kmer kmer_of(const std::string& s) { return *Kmer::from_ascii(s); }

TEST(SeedIndexCache, MissThenHit) {
  SeedIndexCache cache(Topology(8, 4), {16});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  const Kmer m = kmer_of("ACGTACGTACG");
  EXPECT_FALSE(cache.lookup(0, m, 10, out, total));
  cache.insert(0, m, {{1, 1, 5}, {2, 2, 9}}, 2);
  ASSERT_TRUE(cache.lookup(0, m, 10, out, total));
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t_pos, 5u);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(SeedIndexCache, NodesAreIndependent) {
  SeedIndexCache cache(Topology(8, 4), {16});
  const Kmer m = kmer_of("TTTTTTT");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_TRUE(cache.lookup(0, m, 5, out, total));
  EXPECT_FALSE(cache.lookup(1, m, 5, out, total));  // other node: cold
}

TEST(SeedIndexCache, MaxHitsLimitsCopiedResults) {
  SeedIndexCache cache(Topology(2, 2), {16});
  const Kmer m = kmer_of("ACACACA");
  cache.insert(0, m, {{1, 1, 0}, {2, 2, 0}, {3, 3, 0}}, 7);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 2, out, total));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(total, 7u);  // the seed's true frequency survives truncation
}

TEST(SeedIndexCache, EvictsWhenFull) {
  SeedIndexCache cache(Topology(2, 2), {4});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  const auto c = cache.counters();
  EXPECT_EQ(c.insertions, 8u);
  EXPECT_EQ(c.evictions, 4u);
  // Exactly 4 of the 8 remain.
  int present = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    out.clear();
    if (cache.lookup(0, kmer_of(s), 4, out, total)) ++present;
  }
  EXPECT_EQ(present, 4);
}

TEST(SeedIndexCache, DuplicateInsertIsIgnored) {
  SeedIndexCache cache(Topology(2, 2), {8});
  const Kmer m = kmer_of("GGGGGGG");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  cache.insert(0, m, {{9, 9, 9}}, 9);  // should not overwrite
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 4, out, total));
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(out[0].fragment_id, 1u);
}

TEST(SeedIndexCache, ZeroCapacityNeverStores) {
  SeedIndexCache cache(Topology(2, 2), {0});
  const Kmer m = kmer_of("CCCCCCC");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_FALSE(cache.lookup(0, m, 4, out, total));
}

TEST(SeedIndexCache, ConcurrentMixedAccessIsSafe) {
  // Every thread works on node 0, so threads race for the same set locks:
  // at 16 entries the node is one set and every op contends (the tsan run of
  // this suite exercises the spin-then-park path); at 1 << 16 there are 4096
  // sets and contention is rare.
  for (const std::size_t capacity :
       {std::size_t{16}, std::size_t{1024}, std::size_t{1} << 16}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const Topology topo(8, 4);
    SeedIndexCache cache(topo, {capacity});
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> lookups(8, 0);
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&cache, &lookups, t] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(t));
        std::vector<SeedHit> out;
        std::size_t total = 0;
        for (int i = 0; i < 2000; ++i) {
          std::string s(9, 'A');
          for (auto& c : s) c = "ACGT"[rng() & 3u];
          const Kmer m = kmer_of(s);
          if (rng() & 1u) {
            cache.insert(0, m, {{0, 0, 0}, {1, 1, 1}}, 2);
          } else {
            out.clear();
            cache.lookup(0, m, 4, out, total);
            ++lookups[static_cast<std::size_t>(t)];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto c = cache.counters();
    std::uint64_t issued = 0;
    for (const auto n : lookups) issued += n;
    EXPECT_GT(c.insertions, 0u);
    EXPECT_EQ(c.hits + c.misses, issued);
    EXPECT_EQ(c.insertions - c.evictions, cache.entries());
    EXPECT_LE(cache.entries(), capacity);
  }
}

TEST(SeedIndexCache, WarmInsertsAndEvictionsDoNotAllocate) {
  // A victim is chosen within its set, so a newcomer's hit list need not
  // fall in its victim's arena size class. But no size class ever holds
  // more live blocks than the capacity, and the arena's first chunk (65,536
  // hits) has room for that many blocks of every class used here (up to 64
  // hits), so once the cache is full every store is served from a free list
  // or that chunk: the steady state of a full cache allocates nothing.
  // The measured phase stores ~116K hits' worth of blocks, so an arena that
  // failed to reuse released blocks would need further chunks, and growing
  // its chunk list allocates.
  constexpr std::size_t kCapacity = 64;
  SeedIndexCache cache(Topology(2, 2), {kCapacity});
  std::mt19937_64 rng(5);
  std::vector<Kmer> seeds;
  std::vector<std::vector<SeedHit>> lists;
  for (std::size_t i = 0; i < 66 * kCapacity; ++i) {
    std::string s(21, 'A');
    for (auto& c : s) c = "ACGT"[rng() & 3u];
    seeds.push_back(kmer_of(s));
    lists.emplace_back(i % 40, SeedHit{static_cast<std::uint32_t>(i), 1, 2});
  }
  std::vector<SeedHit> out;
  out.reserve(64);
  std::size_t total = 0;
  const auto cycle = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      cache.insert(0, seeds[i], lists[i], lists[i].size());
      out.clear();
      cache.lookup(0, seeds[i - i % 7], 64, out, total);
    }
  };
  cycle(0, 2 * kCapacity);  // fill, then a capacity's worth of evictions
  ASSERT_EQ(cache.entries(), kCapacity);
  g_allocations = 0;
  g_count_allocations = true;
  cycle(2 * kCapacity, seeds.size());
  g_count_allocations = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(cache.counters().evictions, seeds.size() - kCapacity);
}

TEST(SeedIndexCache, ConstructionTouchesNoPages) {
  // Sets and entries are anonymous zero pages: building a 2^18-entry cache
  // per node maps ~26 MB but faults in only its small per-node bookkeeping,
  // so a session whose cache never sees an off-node lookup costs no RSS.
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const SeedIndexCache cache(Topology(8, 4), {std::size_t{1} << 18});
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 64);
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: the cache against an executable model of its semantics
// ---------------------------------------------------------------------------

/// One node of the seed cache as a plain map plus, per set, a ring of its
/// ways with a CLOCK hand and reference bits: the semantics SeedIndexCache
/// must reproduce op for op. The set comes from the cache's own set
/// function; each set holds its share of the capacity.
class ModelSeedCache {
 public:
  ModelSeedCache(std::size_t capacity, bool admission)
      : capacity_(capacity),
        admission_(admission),
        sets_(mera::cache::detail::seed_cache_sets(capacity)) {}

  bool lookup(const Kmer& seed, std::size_t max_hits,
              std::vector<SeedHit>& out, std::size_t& total) {
    const auto it = map_.find(seed);
    if (it == map_.end()) {
      ++counters.misses;
      return false;
    }
    ++counters.hits;
    Value& v = it->second;
    ++v.use_count;
    set_of(seed).ref[v.way] = true;
    total = v.total;
    const std::size_t n = std::min(max_hits, v.hits.size());
    out.insert(out.end(), v.hits.begin(),
               v.hits.begin() + static_cast<std::ptrdiff_t>(n));
    return true;
  }

  void insert(const Kmer& seed, const std::vector<SeedHit>& hits,
              std::size_t total) {
    if (capacity_ == 0 || map_.contains(seed)) return;
    Set& set = set_of(seed);
    std::size_t way = set.ring.size();
    if (set.ring.size() < share_of(seed)) {
      set.ring.push_back(seed);
      set.ref.push_back(false);
    } else {
      const auto advance = [&set] {
        set.hand = (set.hand + 1) % set.ring.size();
      };
      if (admission_) {
        bool evicted = false;
        for (std::size_t p = 0; p < std::min<std::size_t>(8, set.ring.size());
             ++p) {
          Value& cand = map_.at(set.ring[set.hand]);
          if (cand.use_count == 0) {
            evicted = true;
            break;
          }
          cand.use_count /= 2;
          advance();
        }
        if (!evicted) {
          ++counters.admission_rejects;
          return;
        }
      } else {
        while (set.ref[set.hand]) {
          set.ref[set.hand] = false;
          advance();
        }
      }
      way = set.hand;
      map_.erase(set.ring[way]);
      set.ring[way] = seed;
      set.ref[way] = false;
      advance();
      ++counters.evictions;
    }
    map_.emplace(seed, Value{hits, static_cast<std::uint32_t>(total), 0, way});
    ++counters.insertions;
  }

  [[nodiscard]] std::size_t entries() const { return map_.size(); }

  CacheCounters counters;

 private:
  struct Value {
    std::vector<SeedHit> hits;
    std::uint32_t total = 0;
    std::uint32_t use_count = 0;
    std::size_t way = 0;
  };
  struct Set {
    std::vector<Kmer> ring;  ///< way order
    std::vector<bool> ref;
    std::size_t hand = 0;
  };
  [[nodiscard]] std::size_t set_index(const Kmer& seed) const {
    return mera::cache::detail::seed_cache_set_of(seed.mixed_hash(),
                                                  sets_.size());
  }
  Set& set_of(const Kmer& seed) { return sets_[set_index(seed)]; }
  [[nodiscard]] std::size_t share_of(const Kmer& seed) const {
    const std::size_t n = sets_.size();
    return capacity_ / n + (set_index(seed) < capacity_ % n ? 1 : 0);
  }

  std::size_t capacity_;
  bool admission_;
  std::vector<Set> sets_;
  std::map<Kmer, Value> map_;
};

/// A random hit list: mostly 0-3 hits, sometimes a long (arena) list.
std::vector<SeedHit> random_hits(std::mt19937_64& rng) {
  const std::size_t n = rng() % 8 == 0 ? 17 + rng() % 24 : rng() % 4;
  std::vector<SeedHit> hits(n);
  for (auto& h : hits)
    h = SeedHit{static_cast<std::uint32_t>(rng() % 1000),
                static_cast<std::uint32_t>(rng() % 100),
                static_cast<std::uint32_t>(rng() % 100000)};
  return hits;
}

TEST(SeedIndexCache, MatchesThePerSetClockModelOpForOp) {
  for (const bool admission : {false, true}) {
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{1024}}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) +
                   (admission ? " with admission" : ""));
      SeedIndexCache cache(Topology(2, 2),
                           {.capacity_per_node = capacity,
                            .eviction_aware_admission = admission});
      ModelSeedCache model(capacity, admission);
      std::mt19937_64 rng(20240611);
      // A key universe a few times the capacity, skewed so some seeds recur
      // often enough to earn hits (and CLOCK or admission protection).
      std::vector<Kmer> keys;
      for (std::size_t i = 0; i < capacity * 3 + 8; ++i) {
        std::string s(21, 'A');
        for (auto& c : s) c = "ACGT"[rng() & 3u];
        keys.push_back(kmer_of(s));
      }
      for (int op = 0; op < 20000; ++op) {
        const std::size_t r = rng() % keys.size();
        const Kmer& seed = keys[r * r / keys.size()];
        if (rng() & 1u) {
          const auto hits = random_hits(rng);
          const std::size_t total = hits.size() + rng() % 3;
          cache.insert(0, seed, hits, total);
          model.insert(seed, hits, total);
        } else {
          const std::size_t max_hits = 1 + rng() % 32;
          std::vector<SeedHit> got, want;
          std::size_t got_total = 0, want_total = 0;
          const bool got_hit = cache.lookup(0, seed, max_hits, got, got_total);
          const bool want_hit =
              model.lookup(seed, max_hits, want, want_total);
          ASSERT_EQ(got_hit, want_hit) << "op " << op;
          ASSERT_EQ(got, want) << "op " << op;
          if (want_hit) {
            ASSERT_EQ(got_total, want_total) << "op " << op;
          }
        }
        ASSERT_EQ(cache.counters(), model.counters) << "op " << op;
        ASSERT_EQ(cache.entries(), model.entries()) << "op " << op;
      }
      EXPECT_GT(model.counters.hits, 0u);
      EXPECT_GT(model.counters.evictions, 0u);
      if (admission) {
        EXPECT_GT(model.counters.admission_rejects, 0u);
      }
    }
  }
}

TEST(SeedIndexCache, FullCacheServesExactlyWhatWasInserted) {
  // 1 << 14 entries per node is 1024 sets; 60K distinct seeds overflow
  // every set many times over.
  const std::size_t capacity = std::size_t{1} << 14;
  SeedIndexCache cache(Topology(4, 2), {capacity});
  std::mt19937_64 rng(7);
  struct Inserted {
    Kmer seed;
    int node;
    std::vector<SeedHit> hits;
    std::size_t total;
  };
  std::vector<Inserted> inserted;
  for (int i = 0; i < 60000; ++i) {
    std::string s(25, 'A');
    for (auto& c : s) c = "ACGT"[rng() & 3u];
    auto hits = random_hits(rng);
    const std::size_t total = hits.size() + rng() % 5;
    const int node = static_cast<int>(rng() & 1u);
    cache.insert(node, kmer_of(s), hits, total);
    inserted.push_back({kmer_of(s), node, std::move(hits), total});
  }
  std::size_t present = 0;
  for (const Inserted& e : inserted) {
    const std::size_t max_hits = 1 + rng() % 32;
    std::vector<SeedHit> out;
    std::size_t total = 0;
    if (!cache.lookup(e.node, e.seed, max_hits, out, total)) continue;
    ++present;
    EXPECT_EQ(total, e.total);
    const std::size_t n = std::min(max_hits, e.hits.size());
    ASSERT_EQ(out.size(), n);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), e.hits.begin()));
  }
  const auto c = cache.counters();
  EXPECT_EQ(present, cache.entries());
  EXPECT_EQ(c.insertions - c.evictions, cache.entries());
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(cache.entries(), 2 * capacity);
}

TEST(TargetCache, MissInsertHit) {
  TargetCache cache(Topology(4, 2), {1 << 20});
  EXPECT_FALSE(cache.contains(0, 42));
  cache.insert(0, 42, 1000);
  EXPECT_TRUE(cache.contains(0, 42));
  EXPECT_FALSE(cache.contains(1, 42));  // per-node
}

TEST(TargetCache, EvictsLeastRecentlyUsedByBytes) {
  TargetCache cache(Topology(2, 2), {3000});
  cache.insert(0, 1, 1000);
  cache.insert(0, 2, 1000);
  cache.insert(0, 3, 1000);
  EXPECT_TRUE(cache.contains(0, 1));  // touch 1 -> MRU
  cache.insert(0, 4, 1000);           // evicts LRU = 2
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 4));
}

TEST(TargetCache, ObjectLargerThanCapacityIsNotCached) {
  TargetCache cache(Topology(2, 2), {100});
  cache.insert(0, 7, 500);
  EXPECT_FALSE(cache.contains(0, 7));
}

TEST(TargetCache, MultiEvictionToFitLargeEntry) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 1, 400);
  cache.insert(0, 2, 400);
  cache.insert(0, 3, 900);  // must evict both
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(TargetCache, DuplicateInsertKeepsOneCopy) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 5, 300);
  cache.insert(0, 5, 300);
  cache.insert(0, 6, 700);  // fits only if id 5 counted once
  EXPECT_TRUE(cache.contains(0, 5));
  EXPECT_TRUE(cache.contains(0, 6));
}

// ---------------------------------------------------------------------------
// Eviction-aware admission (multi-tenant streams; persisted hit counters)
// ---------------------------------------------------------------------------

TEST(SeedIndexCache, AdmissionProtectsWarmEntriesFromColdFloods) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 4, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  // One proven-hot entry; the other three stay hitless.
  const Kmer hot = kmer_of("GAAAAAA");
  for (int rep = 0; rep < 100; ++rep) {
    out.clear();
    ASSERT_TRUE(cache.lookup(0, hot, 4, out, total));
  }
  // A cold multi-tenant flood cycles through the hitless slots...
  for (int i = 0; i < 16; ++i) {
    std::string s = "CCCCCCC";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{0, 0, 0}}, 1);
  }
  // ...but the warm working set survives it.
  out.clear();
  EXPECT_TRUE(cache.lookup(0, hot, 4, out, total));
  EXPECT_GT(cache.counters().evictions, 0u);  // cold entries did cycle
}

TEST(SeedIndexCache, AdmissionRejectsWhenEverythingIsWarmer) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 2, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  cache.insert(0, kmer_of("AAAAAAA"), {{1, 0, 0}}, 1);
  cache.insert(0, kmer_of("CAAAAAA"), {{2, 0, 0}}, 1);
  for (int rep = 0; rep < 64; ++rep) {
    out.clear();
    cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total);
    out.clear();
    cache.lookup(0, kmer_of("CAAAAAA"), 4, out, total);
  }
  cache.insert(0, kmer_of("GAAAAAA"), {{3, 0, 0}}, 1);  // colder than both
  out.clear();
  EXPECT_FALSE(cache.lookup(0, kmer_of("GAAAAAA"), 4, out, total));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_TRUE(cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total));

  // The probe decays hit counts, so a persistent newcomer is admitted
  // eventually — warm entries are protected, not immortal.
  for (int i = 0; i < 16; ++i) {
    std::string s = "GGGGGGG";
    s[1] = "ACGT"[i % 4];
    s[2] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{4, 0, 0}}, 1);
  }
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(TargetCache, AdmissionGivesWarmTailEntriesASecondChance) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 3; ++rep) EXPECT_TRUE(cache.contains(0, 1));
  // Tail is the hitless id 2; it is sacrificed, the warm id 1 survives.
  cache.insert(0, 3, 500);
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
}

TEST(TargetCache, AdmissionRejectsWhenEverythingIsWarmer) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 200; ++rep) {
    cache.contains(0, 1);
    cache.contains(0, 2);
  }
  cache.insert(0, 3, 500);  // both residents are far warmer: refused
  EXPECT_FALSE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 2));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
}

TEST(TargetCache, ConcurrentAccessIsSafe) {
  TargetCache cache(Topology(8, 4), {1 << 16});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < 3000; ++i) {
        const auto gid = static_cast<std::uint32_t>(rng() % 256);
        const int node = t / 4;
        if (cache.contains(node, gid)) continue;
        cache.insert(node, gid, 64 + rng() % 512);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cache.counters().insertions, 0u);
}

}  // namespace
