// Kernel microbenches (google-benchmark): reference full-DP Smith-Waterman
// vs the inter-candidate batch engine's traced sweep (Section V-B — the
// paper adopts SSW because SW dominates the aligning phase's computation).
#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"

namespace {

using namespace mera::align;

std::string random_dna(std::mt19937_64& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = "ACGT"[rng() & 3u];
  return s;
}

struct Pair {
  std::vector<std::uint8_t> q, t;
};

Pair make_pair(std::size_t qlen, std::size_t tlen) {
  std::mt19937_64 rng(7);
  const std::string g = random_dna(rng, tlen);
  std::string q = g.substr(tlen / 4, qlen);
  for (std::size_t i = 0; i < qlen / 50 + 1; ++i)
    q[rng() % qlen] = "ACGT"[rng() & 3u];
  return {dna_codes(q), dna_codes(g)};
}

void BM_ReferenceSW(benchmark::State& state) {
  const auto p = make_pair(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smith_waterman(std::span<const std::uint8_t>(p.q),
                       std::span<const std::uint8_t>(p.t), Scoring{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_ReferenceSW)->Args({101, 300})->Args({101, 1000})->Args({250, 1000});

void BM_ScoreOnlySW(benchmark::State& state) {
  const auto p = make_pair(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sw_score_reference(std::span<const std::uint8_t>(p.q),
                           std::span<const std::uint8_t>(p.t), Scoring{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_ScoreOnlySW)->Args({101, 300})->Args({101, 1000})->Args({250, 1000});

// Inter-candidate batch engine: N candidate windows aligned (traced sweep +
// traceback) in one flush, one candidate per SIMD lane, through one
// TraceScratch kept across flushes as the session keeps one per rank.
// Args = {qlen, tlen, n_candidates}; compare items/s against BM_ReferenceSW
// at the same (qlen, tlen) to see the cross-candidate packing win. Each tier is registered only if this host
// supports it, so the suite is self-pruning on narrow machines.
struct CandidateSet {
  std::vector<std::uint8_t> q;
  std::vector<std::vector<std::uint8_t>> ts;
};

CandidateSet make_candidates(std::size_t qlen, std::size_t tlen,
                             std::size_t n) {
  std::mt19937_64 rng(13);
  CandidateSet cs;
  const std::string qs = random_dna(rng, qlen);
  cs.q = dna_codes(qs);
  for (std::size_t c = 0; c < n; ++c) {
    std::string body = qs;
    for (std::size_t e = 0; e < qlen / 40 + 1; ++e)
      body[rng() % body.size()] = "ACGT"[rng() & 3u];
    const std::size_t flank = (tlen - qlen) / 2;
    cs.ts.push_back(dna_codes(random_dna(rng, flank) + body +
                              random_dna(rng, tlen - qlen - flank)));
  }
  return cs;
}

void batch_sw_tier(benchmark::State& state, SwIsa isa) {
  if (!isa_supported(isa)) {
    state.SkipWithError("ISA tier not supported on this host/build");
    return;
  }
  const auto cs = make_candidates(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)),
                                  static_cast<std::size_t>(state.range(2)));
  TraceScratch scratch;
  for (auto _ : state) {
    BatchSwScorer scorer(std::span<const std::uint8_t>(cs.q), Scoring{}, isa);
    for (const auto& t : cs.ts) scorer.add(std::span<const std::uint8_t>(t));
    benchmark::DoNotOptimize(scorer.flush(scratch));
  }
  // items = DP cells across the whole batch, comparable to BM_ReferenceSW.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1) * state.range(2));
}

void BM_BatchSW_scalar(benchmark::State& s) { batch_sw_tier(s, SwIsa::kScalar); }
void BM_BatchSW_sse2(benchmark::State& s) { batch_sw_tier(s, SwIsa::kSse2); }
void BM_BatchSW_avx2(benchmark::State& s) { batch_sw_tier(s, SwIsa::kAvx2); }
void BM_BatchSW_avx512(benchmark::State& s) { batch_sw_tier(s, SwIsa::kAvx512); }
BENCHMARK(BM_BatchSW_scalar)->Args({101, 300, 24})->Args({101, 300, 64});
BENCHMARK(BM_BatchSW_sse2)->Args({101, 300, 24})->Args({101, 300, 64});
BENCHMARK(BM_BatchSW_avx2)->Args({101, 300, 24})->Args({101, 300, 64});
BENCHMARK(BM_BatchSW_avx512)->Args({101, 300, 24})->Args({101, 300, 64});

void BM_ExactMemcmpPath(benchmark::State& state) {
  // The Lemma-1 fast path the paper substitutes for SW on exact reads.
  std::mt19937_64 rng(11);
  const std::string g = random_dna(rng, 4096);
  const mera::seq::PackedSeq target(g);
  const mera::seq::PackedSeq query(g.substr(1000, 101));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mera::seq::PackedSeq::equal_range(query, 0, target, 1000, 101));
  }
}
BENCHMARK(BM_ExactMemcmpPath);

}  // namespace

BENCHMARK_MAIN();
