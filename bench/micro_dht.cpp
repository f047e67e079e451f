// DHT microbenches (google-benchmark): distributed seed-index construction
// across modes and aggregation buffer sizes S (the Section III-A tuning
// parameter; the paper uses S = 1000), lookup throughput of present and of
// absent seeds, one call at a time and pipelined as the aligner runs them,
// on a cache-sized and a DRAM-sized index, and the node seed cache's wall
// cost per lookup-or-insert.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cache/seed_cache.hpp"
#include "dht/seed_index.hpp"
#include "pgas/runtime.hpp"
#include "seq/kmer.hpp"

namespace {

using namespace mera;
using dht::SeedHit;
using dht::SeedIndex;

std::vector<std::string> make_targets(int n, std::size_t len,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> v;
  for (int i = 0; i < n; ++i) {
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng() & 3u];
    v.push_back(std::move(s));
  }
  return v;
}

void build(pgas::Runtime& rt, SeedIndex& index,
           const std::vector<std::string>& seqs, int k) {
  rt.run([&](pgas::Rank& r) {
    const std::size_t n = seqs.size();
    const auto me = static_cast<std::size_t>(r.id());
    const auto p = static_cast<std::size_t>(r.nranks());
    const std::size_t lo = n * me / p, hi = n * (me + 1) / p;
    for (std::size_t s = lo; s < hi; ++s)
      seq::for_each_stranded_seed(std::string_view(seqs[s]), k,
                                  [&](std::size_t, const seq::StrandedKmer& m) {
                                    index.count_seed(r, m);
                                  });
    index.finish_count(r);
    for (std::size_t s = lo; s < hi; ++s)
      seq::for_each_stranded_seed(std::string_view(seqs[s]), k,
                         [&](std::size_t off, const seq::StrandedKmer& m) {
                           index.insert(
                               r, m,
                               SeedHit{static_cast<std::uint32_t>(s),
                                       static_cast<std::uint32_t>(s),
                                       static_cast<std::uint32_t>(off)});
                         });
    index.finish_insert(r);
  });
}

/// Construction wall+model cost across buffer sizes S (and the naive mode as
/// S-row "naive"): prints the modeled build time as a counter.
void BM_IndexConstruction(benchmark::State& state) {
  const bool aggregating = state.range(0) >= 0;
  const std::size_t S =
      aggregating ? static_cast<std::size_t>(state.range(0)) : 1;
  const auto targets = make_targets(32, 4000, 3);
  const int k = 31;
  double modeled = 0;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    pgas::Runtime rt(pgas::Topology(8, 4));
    SeedIndex index(rt.topo(), {k, aggregating, S});
    build(rt, index, targets, k);
    modeled = rt.report().total_time_s();
    msgs = rt.report().total_traffic().remote_msgs();
    benchmark::DoNotOptimize(index.total_entries());
  }
  state.counters["modeled_s"] = modeled;
  state.counters["remote_msgs"] = static_cast<double>(msgs);
}
BENCHMARK(BM_IndexConstruction)
    ->Arg(-1)  // naive fine-grained mode
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// The lookup benches' index and queries. The cache-sized index holds 16
/// random targets (64K entries) and its queries are the stranded seeds of
/// one sequence: a target's own (every lookup finds its seed) or one not in
/// the index (every lookup misses, as most lookups of human reads do), so
/// every line they touch stays in cache. The DRAM-sized index holds 480
/// targets (~1.9M entries) and its queries are the seeds of every target
/// (or of as many absent sequences), so lookups spread over the whole index
/// as the aligner's do on a real reference.
struct LookupBench {
  static constexpr int kLookupsPerRun = 100000;
  static constexpr int kK = 31;
  pgas::Runtime rt{pgas::Topology(4, 2)};
  SeedIndex index{rt.topo(), {kK, true, 1000}};
  std::array<std::vector<seq::StrandedKmer>, 2> queries;  ///< [present]

  explicit LookupBench(bool dram) {
    const int n = dram ? 480 : 16;
    const auto targets = make_targets(n, 4000, 5);
    build(rt, index, targets, kK);
    const auto add_seeds = [](std::vector<seq::StrandedKmer>& to,
                              const std::string& s) {
      seq::for_each_stranded_seed(
          std::string_view(s), kK,
          [&](std::size_t, const seq::StrandedKmer& m) { to.push_back(m); });
    };
    if (dram)
      for (const std::string& t : targets) add_seeds(queries[1], t);
    else
      add_seeds(queries[1], targets[3]);
    for (const std::string& s : make_targets(dram ? n : 1, 4000, 6))
      add_seeds(queries[0], s);
  }

  /// Built once per process: the DRAM-sized index takes longer to build
  /// than its benches take to run.
  static LookupBench& get(bool dram) {
    static std::array<std::unique_ptr<LookupBench>, 2> built;
    auto& b = built[dram ? 1 : 0];
    if (!b) b = std::make_unique<LookupBench>(dram);
    return *b;
  }
};

/// Lookup wall cost, one call at a time. Wall time, over enough lookups per
/// run that starting the rank threads is a small part of it. `both_strands`
/// makes the aligner's call, which also returns the reverse complement's
/// hits; otherwise one oriented seed is looked up.
void seed_lookups(benchmark::State& state, bool present, bool both_strands,
                  bool dram = false) {
  LookupBench& b = LookupBench::get(dram);
  const std::vector<seq::StrandedKmer>& queries = b.queries[present];
  std::size_t qi = 0;
  std::vector<SeedHit> hits, rc_hits;
  for (auto _ : state) {
    b.rt.run([&](pgas::Rank& r) {
      if (r.id() != 0) return;
      for (int i = 0; i < LookupBench::kLookupsPerRun; ++i) {
        hits.clear();
        if (both_strands) {
          rc_hits.clear();
          benchmark::DoNotOptimize(
              b.index.lookup(r, queries[qi], 16, hits, &rc_hits));
        } else {
          benchmark::DoNotOptimize(
              b.index.lookup(r, queries[qi].fwd, 16, hits));
        }
        qi = (qi + 1) % queries.size();
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          LookupBench::kLookupsPerRun);
}
void BM_SeedLookup(benchmark::State& state) {
  seed_lookups(state, true, false);
}
void BM_SeedLookupAbsent(benchmark::State& state) {
  seed_lookups(state, false, false);
}
void BM_SeedLookupBothStrands(benchmark::State& state) {
  seed_lookups(state, state.range(0) != 0, true, state.range(1) != 0);
}

/// BM_SeedLookupBothStrands' lookups as the aligner makes them for a read
/// that scans all of its windows: reads of 51 consecutive windows, each
/// window probed once when it comes kBucketAhead lookups ahead (stage 1
/// prefetch), its run head prefetched kRunAhead ahead (stage 2), then
/// looked up in order.
void BM_SeedLookupPipelined(benchmark::State& state) {
  constexpr std::size_t kWindows = 51;
  constexpr int kReadsPerRun = LookupBench::kLookupsPerRun / kWindows;
  LookupBench& b = LookupBench::get(state.range(1) != 0);
  const std::vector<seq::StrandedKmer>& queries = b.queries[state.range(0) != 0];
  std::array<SeedIndex::Probe, kWindows> probes{};
  std::size_t first = 0;  // the read's first window in b.queries
  std::vector<SeedHit> hits, rc_hits;
  for (auto _ : state) {
    b.rt.run([&](pgas::Rank& r) {
      if (r.id() != 0) return;
      for (int n = 0; n < kReadsPerRun; ++n) {
        if (first + kWindows > queries.size()) first = 0;
        const seq::StrandedKmer* window = queries.data() + first;
        const auto enter = [&](std::size_t i) {
          probes[i] = b.index.probe(window[i]);
          b.index.prefetch_bucket(probes[i]);
        };
        for (std::size_t i = 0; i < SeedIndex::kBucketAhead; ++i) enter(i);
        for (std::size_t i = 0; i < kWindows; ++i) {
          if (i + SeedIndex::kBucketAhead < kWindows)
            enter(i + SeedIndex::kBucketAhead);
          if (i + SeedIndex::kRunAhead < kWindows)
            b.index.prefetch_run(probes[i + SeedIndex::kRunAhead]);
          hits.clear();
          rc_hits.clear();
          benchmark::DoNotOptimize(
              b.index.lookup(r, window[i], probes[i], 16, hits, &rc_hits));
        }
        first += kWindows;
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kReadsPerRun * static_cast<std::int64_t>(kWindows));
}
BENCHMARK(BM_SeedLookup)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeedLookupAbsent)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeedLookupBothStrands)
    ->ArgNames({"present", "dram"})
    ->ArgsProduct({{1, 0}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeedLookupPipelined)
    ->ArgNames({"present", "dram"})
    ->ArgsProduct({{1, 0}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Seeds and hit lists for BM_SeedCacheLookupOrInsert: 4x the capacity.
struct SeedCacheWorkload {
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  std::vector<seq::Kmer> seeds;
  std::vector<std::vector<SeedHit>> lists;

  SeedCacheWorkload() {
    std::mt19937_64 rng(9);
    for (std::size_t i = 0; i < 4 * kCapacity; ++i) {
      std::string s(31, 'A');
      for (auto& c : s) c = "ACGT"[rng() & 3u];
      seeds.push_back(*seq::Kmer::from_ascii(s));
      // Mostly one hit (stored in the entry), sometimes a longer list.
      lists.emplace_back(i % 8 == 0 ? 5 : 1,
                         SeedHit{static_cast<std::uint32_t>(i), 0, 0});
    }
  }
};

/// The node seed cache as the aligner drives it for every off-node seed:
/// a lookup, then an insert of the fetched list on a miss. Two threads share
/// one node's cache and draw seeds uniformly from a working set 4x its
/// capacity, so most lookups miss and most inserts evict. `ns_per_op` is
/// each thread's wall time per lookup (plus its insert, on a miss).
void BM_SeedCacheLookupOrInsert(benchmark::State& state) {
  static const SeedCacheWorkload work;
  static std::optional<cache::SeedIndexCache> cache;
  if (state.thread_index() == 0)
    cache.emplace(pgas::Topology(2, 2),
                  cache::SeedIndexCache::Options{SeedCacheWorkload::kCapacity});
  std::mt19937_64 rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const std::size_t i = rng() % work.seeds.size();
    out.clear();
    const bool hit = cache->lookup(0, work.seeds[i], 32, out, total);
    benchmark::DoNotOptimize(hit);
    if (!hit)
      cache->insert(0, work.seeds[i], work.lists[i], work.lists[i].size());
  }
  const std::chrono::duration<double, std::nano> wall =
      std::chrono::steady_clock::now() - t0;
  state.counters["ns_per_op"] = benchmark::Counter(
      wall.count() / static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
  if (state.thread_index() == 0) {
    state.counters["hit_rate"] = cache->counters().hit_rate();
    cache.reset();
  }
}
BENCHMARK(BM_SeedCacheLookupOrInsert)->Threads(2);

void BM_KmerRollingExtraction(benchmark::State& state) {
  const auto targets = make_targets(1, 100'000, 7);
  const int k = 51;
  for (auto _ : state) {
    std::size_t n = 0;
    seq::for_each_seed(std::string_view(targets[0]), k,
                       [&](std::size_t, const seq::Kmer& m) {
                         benchmark::DoNotOptimize(m);
                         ++n;
                       });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100'000);
}
BENCHMARK(BM_KmerRollingExtraction);

}  // namespace

BENCHMARK_MAIN();
