// Quickstart: align a set of reads against a set of contigs, end to end.
//
//   1. simulate a small genome, chop it into contigs (the targets),
//   2. sample error-bearing reads from it (the queries),
//   3. write them to FASTA / SeqDB files,
//   4. run the fully parallel merAligner pipeline on a simulated 8-rank
//      PGAS machine: build the distributed seed index once
//      (core::IndexedReference), then load the reads file and align it as
//      one batch (core::AlignSession), and
//   5. stream the alignments to SAM and print the pipeline report.
//
// Usage: quickstart [nranks] [ranks_per_node]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/indexed_reference.hpp"
#include "seq/fasta.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "seq/seqdb.hpp"

int main(int argc, char** argv) {
  using namespace mera;
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int ppn = argc > 2 ? std::atoi(argv[2]) : 4;

  // --- 1+2: workload -------------------------------------------------------
  const std::string genome = seq::simulate_genome({.length = 200'000,
                                                   .repeat_fraction = 0.05,
                                                   .rng_seed = 42});
  const auto contigs = seq::chop_into_contigs(genome, {.rng_seed = 43});
  seq::ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = 4.0;
  rp.error_rate = 0.005;
  rp.junk_fraction = 0.01;
  rp.rng_seed = 44;
  const auto reads = seq::simulate_reads(genome, rp);
  std::printf("workload: %zu contigs, %zu reads\n", contigs.size(),
              reads.size());

  // --- 3: files (FASTA targets, binary SeqDB queries) ----------------------
  seq::write_fasta("quickstart_contigs.fa", contigs);
  seq::write_seqdb("quickstart_reads.sdb", reads, /*store_quality=*/false);

  // --- 4: align on the simulated PGAS machine ------------------------------
  pgas::Runtime rt(pgas::Topology(nranks, ppn));
  core::IndexConfig icfg;
  icfg.k = 31;  // seed length
  const auto ref = core::IndexedReference::build_from_fasta(
      rt, "quickstart_contigs.fa", icfg);
  core::SessionConfig scfg;
  scfg.permute_queries = false;  // align the reads file in its natural order
  core::AlignSession session(ref, scfg);
  core::SamFileSink sam("quickstart.sam", ref);
  const auto batch =
      session.align_batch(rt, core::load_read_batch("quickstart_reads.sdb"), sam);

  // --- 5: report ------------------------------------------------------------
  // The build report holds the index phases, the batch report the aligning
  // phases; appended they are the end-to-end run.
  pgas::PhaseReport report = ref.build_report();
  report.append(batch.report);
  core::PipelineStats stats = batch.stats;
  for (const auto& s : ref.build_stats()) stats += s;  // seeds indexed
  std::printf("\nper-phase simulated times (%d ranks, %d per node):\n", nranks,
              ppn);
  report.print(std::cout);
  std::printf("\npipeline statistics (summed over ranks):\n");
  stats.print(std::cout);
  std::printf("\nseed cache hit rate:   %.1f%%\n",
              100.0 * batch.seed_cache.hit_rate());
  std::printf("target cache hit rate: %.1f%%\n",
              100.0 * batch.target_cache.hit_rate());
  std::printf("single-copy fragments: %.1f%%\n",
              100.0 * ref.single_copy_fraction());
  std::printf("\nwrote %llu alignments to quickstart.sam\n",
              static_cast<unsigned long long>(sam.records_written()));
  return 0;
}
