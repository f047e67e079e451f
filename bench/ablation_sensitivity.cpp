// Ablation: the max-alignments-per-seed threshold (Section IV-C).
//
// "A threshold can be set for the maximum number of alignments per seed ...
// This threshold determines the sensitivity of our aligner and it can be
// used to trade off accuracy for speed when appropriate."
//
// On a repeat-rich workload, sweep the threshold and report aligning-phase
// time, Smith-Waterman volume, alignments found, and placement accuracy
// against simulated ground truth — the paper's qualitative speed/sensitivity
// trade-off made quantitative.
#include <cstdio>

#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/evaluation.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

int main() {
  using namespace mera;
  bench::print_header(
      "Ablation — max alignments per seed (sensitivity/speed trade-off)",
      "Section IV-C (no figure in the paper)");

  // Repeat-rich genome so some seeds map to many targets.
  seq::GenomeParams gp;
  gp.length = 800'000;
  gp.repeat_fraction = 0.3;
  gp.repeat_divergence = 0.005;
  gp.rng_seed = 41;
  const std::string genome = simulate_genome(gp);
  seq::ContigParams cp;
  cp.rng_seed = 42;
  const auto contigs = chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = 2.0;
  rp.error_rate = 0.004;
  rp.rng_seed = 43;
  const auto reads = simulate_reads(genome, rp);
  std::printf("workload: %zu reads on a 30%%-repeat genome\n\n", reads.size());

  std::printf("%10s %12s %12s %14s %12s %12s %12s\n", "max_hits", "align(s)",
              "SW calls", "truncated", "aligned%", "precision%", "recall%");
  for (std::size_t max_hits : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    core::SessionConfig cfg;
    cfg.max_hits_per_seed = max_hits;
    pgas::Runtime rt(pgas::Topology(8, 4));
    const auto ref = core::IndexedReference::build(rt, contigs);
    core::AlignSession session(ref, cfg);
    core::VectorSink sink(rt.nranks());
    const auto res = session.align_batch(rt, reads, sink);
    const auto ev = core::evaluate_alignments(contigs, reads, sink.take(),
                                              {ref.config().k, 5});
    std::printf("%10zu %12.3f %12llu %14llu %11.1f%% %11.1f%% %11.1f%%\n",
                max_hits, res.report.time_of("align"),
                static_cast<unsigned long long>(res.stats.sw_calls),
                static_cast<unsigned long long>(res.stats.hits_truncated),
                100.0 * res.stats.aligned_fraction(),
                100.0 * ev.placement_precision(),
                100.0 *
                    (res.stats.reads_processed
                         ? static_cast<double>(ev.correctly_placed) /
                               static_cast<double>(res.stats.reads_processed)
                         : 0.0));
  }
  std::printf(
      "\nexpect: align time and SW calls grow with the threshold while\n"
      "aligned%% saturates — the knob buys speed once sensitivity plateaus.\n");
  return 0;
}
