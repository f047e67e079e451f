// Index reuse across query batches (session API).
//
// The paper's conclusion sketches "GenBank-scale" screening: one reference
// collection, a stream of query sets. Rebuilding the distributed seed index
// for every query set repeats the whole construction; the session API builds
// it once (IndexedReference) and streams batches against it (AlignSession).
//
// This bench quantifies the reuse: B batches aligned one-shot (a fresh
// IndexedReference + session per batch) vs session (1 index build + B
// aligning runs). The per-batch PhaseReport is the proof of reuse — session
// batches contain only io.reads and align, never index.build/index.mark.
// (The old Figure-7 analytic seed-reuse curve this file used to print lives
// on in git history; the cache-hit behaviour it modeled is measured directly
// by fig09.)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"

int main() {
  using namespace mera;
  bench::print_header(
      "Index reuse — one-shot rebuild vs session (build once, align many)",
      "conclusion: amortizing index construction over query batches");

  // Screening-shaped workload: a sizeable reference, modest per-batch query
  // sets — the regime where rebuilding the index per batch hurts most.
  const int kBatches = 4;
  const auto w = bench::make_workload(bench::human_like(2'000'000, 0.6));
  // Split the read set into kBatches equal batches.
  std::vector<std::vector<seq::SeqRecord>> batches(kBatches);
  for (std::size_t i = 0; i < w.reads.size(); ++i)
    batches[i % kBatches].push_back(w.reads[i]);
  std::printf("workload: %zu contigs, %zu reads in %d batches\n\n",
              w.contigs.size(), w.reads.size(), kBatches);

  core::IndexConfig icfg;
  icfg.k = 31;
  core::SessionConfig scfg;

  const pgas::Topology topo(8, 4);

  // --- one-shot: every batch pays the full pipeline -------------------------
  double oneshot_total = 0.0, oneshot_index = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    pgas::Runtime rt(topo);
    const auto ref = core::IndexedReference::build(rt, w.contigs, icfg);
    core::AlignSession session(ref, scfg);
    core::CountingSink sink;
    const auto res = session.align_batch(rt, batches[b], sink);
    const auto& build = ref.build_report();
    oneshot_total += build.total_time_s() + res.total_time_s();
    oneshot_index += build.time_of("io.targets") +
                     build.time_of("index.build") +
                     build.time_of("index.mark");
  }

  // --- session: one build, then aligning-only batches -----------------------
  pgas::Runtime rt(topo);
  const auto ref = core::IndexedReference::build(rt, w.contigs, icfg);
  const double build_s = ref.build_report().total_time_s();
  core::AlignSession session(ref, scfg);
  core::CountingSink sink;

  std::printf("%8s %14s %14s %16s %s\n", "batch", "io.reads(s)", "align(s)",
              "batch total(s)", "index phases present?");
  double session_total = build_s;
  for (int b = 0; b < kBatches; ++b) {
    const auto res = session.align_batch(rt, batches[b], sink);
    session_total += res.total_time_s();
    // Verified from the emitted PhaseReport: reuse means the index phases
    // simply do not exist in a batch's report.
    const bool has_index_phase = res.report.find("index.build") != nullptr ||
                                 res.report.find("index.mark") != nullptr ||
                                 res.report.find("io.targets") != nullptr;
    if (has_index_phase) {
      std::printf("ERROR: batch %d re-ran index construction\n", b + 1);
      return 1;
    }
    std::printf("%8d %14.4f %14.4f %16.4f %s\n", b + 1,
                res.report.time_of("io.reads"), res.report.time_of("align"),
                res.total_time_s(), "no (io.reads+align only)");
  }

  std::printf("\n%-34s %10.4f s (index phases: %.4f s x %d rebuilds)\n",
              "one-shot, rebuild per batch:", oneshot_total, oneshot_index / kBatches,
              kBatches);
  std::printf("%-34s %10.4f s (index built once: %.4f s)\n",
              "session, index built once:", session_total, build_s);
  std::printf("%-34s %10.2fx\n",
              "end-to-end speedup:", oneshot_total / session_total);
  std::printf(
      "\npaper shape: index construction is a large, perfectly-amortizable\n"
      "fraction of small-batch runs; batches 2..%d are pure aligning.\n",
      kBatches);
  return 0;
}
