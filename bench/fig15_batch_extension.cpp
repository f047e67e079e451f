// Inter-candidate batch extension: the traced sweep vs per-pair full DP.
//
// The paper's aligning phase aligns every candidate window a read's seeds
// produced. The batch engine packs one CANDIDATE per SIMD lane and aligns
// them together in one traced sweep. This bench measures that
// inter-candidate axis on a realistic multi-candidate workload: Q reads,
// each with ~24 candidate windows (mutated copies of the read embedded in
// flanking sequence, plus a few decoys), aligned end to end (score, spans,
// CIGAR, mismatches, gap columns) by
//
//   a. smith_waterman     — one pair at a time (what the scalar tier,
//                           --sw-isa scalar, runs per candidate), and
//   b. the traced sweep   — BatchSwScorer::flush (the aligner's one
//                           extension path), at every SIMD dispatch tier
//                           the host supports.
//
// Every tier's alignments must equal smith_waterman's field for field — the
// bench aborts otherwise, the same contract the `simd` test label enforces.
// Its speedup_vs_full_dp rows are what CI gates on AVX2+ runners. A second
// section compares per-read against pooled flushing of the traced sweep and
// aborts unless pooling at least doubles SIMD lane occupancy.
//
// Output: paper-style stdout rows + BENCH_fig15.json. Pass --smoke for the
// CI-sized workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "align/batch_sw.hpp"
#include "align/pooled_queue.hpp"
#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"
#include "bench_common.hpp"

namespace {

using mera::align::BatchSwScorer;
using mera::align::LocalAlignment;
using mera::align::Scoring;
using mera::align::SwIsa;

std::string random_dna(std::mt19937_64& rng, std::size_t len) {
  static constexpr char kBases[] = "ACGT";
  std::string s(len, 'A');
  for (auto& c : s) c = kBases[rng() & 3u];
  return s;
}

/// One read and the candidate windows its seeds would have produced.
struct ReadCase {
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> targets;
};

/// Q reads x C candidates. Most candidates embed a mutated copy of the read
/// (substitutions + occasional indel) inside random flanks — high-scoring,
/// like true seed extensions; a few are pure decoys that score near zero.
std::vector<ReadCase> make_cases(std::size_t nreads, std::size_t ncand,
                                 std::size_t read_len, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ReadCase> cases(nreads);
  for (auto& rc : cases) {
    const std::string q = random_dna(rng, read_len);
    rc.query = mera::align::dna_codes(q);
    rc.targets.reserve(ncand);
    for (std::size_t c = 0; c < ncand; ++c) {
      std::string window;
      if (c % 6 == 5) {  // decoy candidate: unrelated sequence
        window = random_dna(rng, read_len + 2 * 50);
      } else {
        std::string body = q;
        const int nsub = 1 + static_cast<int>(rng() % 5);
        for (int e = 0; e < nsub; ++e)
          body[rng() % body.size()] = "ACGT"[rng() & 3u];
        if (c % 3 == 0) body.erase(rng() % (body.size() - 2), 1);
        if (c % 4 == 1) body.insert(rng() % body.size(), 1, "ACGT"[rng() & 3u]);
        window = random_dna(rng, 50) + body + random_dna(rng, 50);
      }
      rc.targets.push_back(mera::align::dna_codes(window));
    }
  }
  return cases;
}

using bench::now_s;  // the shared obs clock path, same as every other bench

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

  bench::print_header(
      "Inter-candidate batch extension — traced sweep vs per-pair full DP",
      "Section V-B: Smith-Waterman extension of every seed candidate");
  bench::JsonSummary json(
      "fig15", "inter-candidate traced SIMD sweep vs per-pair full DP");

  const std::size_t nreads = smoke ? 48 : 256;
  const std::size_t ncand = 24;
  const std::size_t read_len = 101;
  const int reps = smoke ? 2 : 4;
  const auto cases = make_cases(nreads, ncand, read_len, /*seed=*/77);
  const double npairs = static_cast<double>(nreads * ncand);
  std::printf("workload: %zu reads x %zu candidates (%.0f pairs), %d reps%s\n",
              nreads, ncand, npairs, reps, smoke ? " (smoke)" : "");

  const Scoring sc;
  const SwIsa widest = mera::align::detect_isa();

  // ---- traced sweep vs scalar full DP: whole alignments --------------------
  // Every candidate aligned end to end by smith_waterman one pair at a time
  // (the scalar tier) and by the traced sweep one lane group at a time (the
  // SIMD tiers). Any field mismatch aborts.
  std::vector<LocalAlignment> full_dp;
  full_dp.reserve(nreads * ncand);
  double full_best_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<LocalAlignment> out;
    out.reserve(nreads * ncand);
    const double t0 = now_s();
    for (const auto& rc : cases)
      for (const auto& t : rc.targets)
        out.push_back(mera::align::smith_waterman(
            std::span<const std::uint8_t>(rc.query),
            std::span<const std::uint8_t>(t), sc));
    const double dt = now_s() - t0;
    if (rep == 0 || dt < full_best_s) full_best_s = dt;
    if (rep == 0) full_dp = std::move(out);
  }
  std::printf("\n%-10s %12s %16s %10s\n", "engine", "best(s)", "candidates/s",
              "speedup");
  std::printf("%-10s %12.4f %16.0f %9.2fx\n", "full_dp", full_best_s,
              npairs / full_best_s, 1.0);
  json.config("full_dp_per_pair");
  json.metric("best_s", full_best_s);
  json.metric("candidates_per_s", npairs / full_best_s);

  double widest_traced_speedup = 0.0;
  mera::align::TraceScratch scratch;
  for (const SwIsa isa : {SwIsa::kScalar, SwIsa::kSse2, SwIsa::kAvx2,
                          SwIsa::kAvx512}) {
    if (!mera::align::isa_supported(isa)) continue;
    double best_s = 0.0;
    std::vector<LocalAlignment> out;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = now_s();
      BatchSwScorer scorer(sc, isa);
      for (const auto& rc : cases) {
        const auto qid =
            scorer.add_query(std::span<const std::uint8_t>(rc.query));
        for (const auto& t : rc.targets)
          scorer.add(qid, std::span<const std::uint8_t>(t));
      }
      out = scorer.flush(scratch);
      const double dt = now_s() - t0;
      if (rep == 0 || dt < best_s) best_s = dt;
    }
    for (std::size_t i = 0; i < full_dp.size(); ++i) {
      const LocalAlignment& a = out[i];
      const LocalAlignment& b = full_dp[i];
      if (a.score != b.score || a.q_begin != b.q_begin ||
          a.q_end != b.q_end || a.t_begin != b.t_begin ||
          a.t_end != b.t_end || a.mismatches != b.mismatches ||
          a.gap_columns != b.gap_columns ||
          a.cigar.to_string() != b.cigar.to_string()) {
        std::fprintf(stderr,
                     "FATAL: traced[%s] pair %zu diverged from full DP "
                     "(score %d vs %d, cigar %s vs %s)\n",
                     mera::align::isa_name(isa), i, a.score, b.score,
                     a.cigar.to_string().c_str(), b.cigar.to_string().c_str());
        return 1;
      }
    }
    const double speedup = full_best_s / best_s;
    if (isa == widest) widest_traced_speedup = speedup;
    std::printf("%-10s %12.4f %16.0f %9.2fx\n", mera::align::isa_name(isa),
                best_s, npairs / best_s, speedup);
    json.config(std::string("traced_") + mera::align::isa_name(isa));
    json.metric("best_s", best_s);
    json.metric("candidates_per_s", npairs / best_s);
    json.metric("speedup_vs_full_dp", speedup);
  }
  std::printf("(every tier's alignments equal smith_waterman field for "
              "field; auto tier: %s)\n",
              mera::align::isa_name(widest));
  json.config("auto_tier_" + std::string(mera::align::isa_name(widest)));
  json.metric("lane_width",
              static_cast<double>(mera::align::isa_lanes16(widest)));
  json.config("traced_auto_tier");
  json.metric("speedup_vs_full_dp", widest_traced_speedup);

  // ---- cross-read pooling: per-read flushes vs PooledExtensionQueue -------
  // The aligning phase's real workload is the OPPOSITE of the one above:
  // most reads produce only a handful of candidates, so a per-read flush
  // fills 3 of 32 AVX-512 trace lanes. Pooling accumulates candidates across
  // reads in length-class buckets and flushes only full lane groups. Same
  // alignments by contract; the lane-occupancy ratio is the figure of merit.
  const std::size_t nreads2 = smoke ? 192 : 768;
  const std::size_t ncand2 = 3;
  const std::size_t lane_width = mera::align::isa_lanes16(SwIsa::kAuto);
  // Mixed read lengths (81..121) spread the pool over two length classes
  // (width 32: classes 2 and 3), so pooling has to merge across reads AND
  // keep classes apart — the shape the session's pooled path sees.
  std::vector<ReadCase> cases2(nreads2);
  {
    std::mt19937_64 rng(178);
    for (std::size_t i = 0; i < nreads2; ++i) {
      const std::size_t len = 81 + (i % 5) * 10;
      auto one = make_cases(1, ncand2, len, rng());
      cases2[i] = std::move(one[0]);
    }
  }
  const double npairs2 = static_cast<double>(nreads2 * ncand2);
  std::printf(
      "\ncross-read pooling: %zu reads x %zu candidates, read lengths "
      "81..121, lane width %zu\n",
      nreads2, ncand2, lane_width);

  // (a) per-read flushing: one flush per read, lanes mostly idle.
  std::vector<LocalAlignment> perread;
  mera::align::LaneStats perread_ls;
  double perread_best_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<LocalAlignment> out;
    out.reserve(nreads2 * ncand2);
    mera::align::LaneStats ls;
    const double t0 = now_s();
    for (const auto& rc : cases2) {
      BatchSwScorer scorer(std::span<const std::uint8_t>(rc.query), sc);
      for (const auto& t : rc.targets)
        scorer.add(std::span<const std::uint8_t>(t));
      auto res = scorer.flush(scratch);
      out.insert(out.end(), res.begin(), res.end());
      ls += scorer.lane_stats();
    }
    const double dt = now_s() - t0;
    if (rep == 0 || dt < perread_best_s) perread_best_s = dt;
    if (rep == 0) {
      perread = std::move(out);
      perread_ls = ls;
    }
  }

  // (b) pooled flushing: candidates from every read share one queue; tags
  // carry provenance so results land back at their global candidate index.
  std::vector<LocalAlignment> pooled(nreads2 * ncand2);
  mera::align::LaneStats pooled_ls;
  double pooled_best_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<LocalAlignment> out(nreads2 * ncand2);
    mera::align::PooledQueueConfig qcfg;
    qcfg.scoring = sc;
    qcfg.scratch = &scratch;
    mera::align::PooledExtensionQueue queue(
        qcfg, [&out](std::uint64_t tag, const LocalAlignment& aln) {
          out[tag] = aln;
        });
    const double t0 = now_s();
    for (std::size_t i = 0; i < nreads2; ++i) {
      const auto qid = queue.add_query(
          std::span<const std::uint8_t>(cases2[i].query));
      for (std::size_t c = 0; c < ncand2; ++c)
        queue.enqueue(qid,
                      std::span<const std::uint8_t>(cases2[i].targets[c]),
                      static_cast<std::uint64_t>(i * ncand2 + c));
    }
    queue.drain();
    const double dt = now_s() - t0;
    if (rep == 0 || dt < pooled_best_s) pooled_best_s = dt;
    if (rep == 0) {
      pooled = std::move(out);
      pooled_ls = queue.lane_stats();
    }
  }

  // Bit-identity gate: pooling changes when candidates are aligned, never
  // what their alignments are.
  for (std::size_t i = 0; i < perread.size(); ++i) {
    if (pooled[i].score != perread[i].score ||
        pooled[i].t_end != perread[i].t_end ||
        pooled[i].cigar.to_string() != perread[i].cigar.to_string()) {
      std::fprintf(stderr,
                   "FATAL: pooled pair %zu diverged from per-read "
                   "(score %d vs %d, t_end %zu vs %zu)\n",
                   i, pooled[i].score, perread[i].score, pooled[i].t_end,
                   perread[i].t_end);
      return 1;
    }
  }

  const double perread_occ = perread_ls.mean_occupancy();
  const double pooled_occ = pooled_ls.mean_occupancy();
  const double occ_ratio = perread_occ > 0.0 ? pooled_occ / perread_occ : 0.0;
  std::printf("%-10s %12s %16s %12s\n", "flush", "best(s)", "candidates/s",
              "occupancy");
  std::printf("%-10s %12.4f %16.0f %11.1f%%\n", "per-read", perread_best_s,
              npairs2 / perread_best_s, 100.0 * perread_occ);
  std::printf("%-10s %12.4f %16.0f %11.1f%%\n", "pooled", pooled_best_s,
              npairs2 / pooled_best_s, 100.0 * pooled_occ);
  std::printf("(pooled/per-read occupancy ratio: %.1fx; streams "
              "bit-identical)\n",
              occ_ratio);
  json.config("perread_flush");
  json.metric("best_s", perread_best_s);
  json.metric("candidates_per_s", npairs2 / perread_best_s);
  json.metric("mean_lane_occupancy", perread_occ);
  json.metric("lane_width", static_cast<double>(lane_width));
  json.config("pooled_flush");
  json.metric("best_s", pooled_best_s);
  json.metric("candidates_per_s", npairs2 / pooled_best_s);
  json.metric("mean_lane_occupancy", pooled_occ);
  json.metric("occupancy_ratio", occ_ratio);

  // On any SIMD tier pooling must at least double mean lane occupancy on
  // this few-candidates-per-read workload — that is the whole feature.
  if (lane_width > 1 &&
      (pooled_occ <= perread_occ || occ_ratio < 2.0)) {
    std::fprintf(stderr,
                 "FATAL: pooled occupancy %.3f vs per-read %.3f "
                 "(ratio %.2fx < 2x) at lane width %zu\n",
                 pooled_occ, perread_occ, occ_ratio, lane_width);
    return 1;
  }

  return json.write() ? 0 : 1;
}
