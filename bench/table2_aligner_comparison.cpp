// Table II: end-to-end comparison of merAligner vs pMap-style parallel
// executions of BWA-mem-like and Bowtie2-like baselines at a fixed
// concurrency, with serial (S) / parallel (P) phase annotations.
//
// Paper (7680 cores, human):
//   merAligner    index   21 (P)   map 263 (P)   total   284 s    1x
//   BWA-mem       index 5384 (S)   map 421 (P)   total  5805 s   20.4x
//   Bowtie2       index 10916 (S)  map 283 (P)   total 11119 s   39.4x
// (pMap read partitioning excluded from the totals, as in the paper.)
#include <cstdio>

#include "baseline/replicated_aligner.hpp"
#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"

int main() {
  using namespace mera;
  bench::print_header(
      "Table II — end-to-end aligner comparison at fixed concurrency",
      "Table II: 20.4x over BWA-mem, 39.4x over Bowtie2 at 7680 cores; "
      "serial index construction is the baseline bottleneck");

  const auto w = bench::make_workload(bench::human_like(2'000'000, 4.0));
  const int nranks = 32, ppn = 8;
  std::printf("workload: %zu reads, %zu contigs; %d cores (%d/node)\n\n",
              w.reads.size(), w.contigs.size(), nranks, ppn);

  // merAligner.
  pgas::Runtime rt(pgas::Topology(nranks, ppn));
  const auto ref = core::IndexedReference::build(rt, w.contigs);
  core::AlignSession session(ref);
  core::CountingSink sink;
  const auto mer = session.align_batch(rt, w.reads, sink);
  const auto& build = ref.build_report();
  const double mer_index = build.time_of("io.targets") +
                           build.time_of("index.build") +
                           build.time_of("index.mark");
  const double mer_map =
      mer.report.time_of("io.reads") + mer.report.time_of("align");
  const double mer_total = mer_index + mer_map;

  std::printf("%-14s %20s %16s %12s %10s %10s\n", "Aligner",
              "Index Construction", "Mapping Time", "Total", "Slowdown",
              "aligned%");
  std::printf("%-14s %16.3f (P) %12.3f (P) %10.3f %9.1fx %9.1f%%\n",
              "merAligner", mer_index, mer_map, mer_total, 1.0,
              100.0 * mer.stats.aligned_fraction());

  for (const auto& preset : {baseline::BaselineConfig::bwamem_like(51),
                             baseline::BaselineConfig::bowtie2_like(51)}) {
    baseline::BaselineConfig cfg = preset;
    cfg.threads_per_instance = ppn / 2;  // pMap: fewer instances than cores
    pgas::Runtime brt(pgas::Topology(nranks, ppn));
    const auto res =
        baseline::ReplicatedIndexAligner(cfg).align(brt, w.contigs, w.reads);
    const double total = res.serial_index_time_s() + res.mapping_time_s();
    std::printf("%-14s %16.3f (S) %12.3f (P) %10.3f %9.1fx %9.1f%%\n",
                cfg.name.c_str(), res.serial_index_time_s(),
                res.mapping_time_s(), total, total / mer_total,
                100.0 * res.stats.aligned_fraction());
  }

  std::printf("\npaper slowdowns: BWA-mem 20.4x, Bowtie2 39.4x; the ordering\n"
              "and the serial-index dominance are the reproduced shape.\n");
  return 0;
}
