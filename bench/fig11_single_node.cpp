// Figure 11: single-node (shared-memory) performance on the E. coli-scale
// dataset, merAligner vs BWA-mem-like vs Bowtie2-like, seed length 19.
//
// Paper: merAligner keeps scaling through all 24 cores; BWA-mem and Bowtie2
// stop improving at ~18 cores; at 24 cores merAligner is 6.33x / 7.2x
// faster. The baselines' serial index construction is the Amdahl term that
// flattens their curves.
#include <cstdio>

#include "baseline/replicated_aligner.hpp"
#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"

namespace {

using namespace mera;

double mer_time(const bench::Workload& w, int nranks) {
  core::IndexConfig cfg;
  cfg.k = 19;
  pgas::Runtime rt(pgas::Topology(nranks, 24));  // one 24-core node
  const auto ref = core::IndexedReference::build(rt, w.contigs, cfg);
  core::AlignSession session(ref);
  core::CountingSink sink;
  const auto batch = session.align_batch(rt, w.reads, sink);
  return ref.build_report().total_time_s() + batch.total_time_s();
}

double baseline_time(const bench::Workload& w, int nranks,
                     baseline::BaselineConfig cfg) {
  cfg.threads_per_instance = nranks;  // single shared-memory instance
  pgas::Runtime rt(pgas::Topology(nranks, 24));
  const auto res =
      baseline::ReplicatedIndexAligner(cfg).align(rt, w.contigs, w.reads);
  return res.total_time_s();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 11 — single-node shared-memory scaling (E. coli, k=19)",
      "Fig. 11: merAligner scales to 24 cores; baselines stall ~18; 6.3x / "
      "7.2x at 24 cores");

  // Depth 12: deep coverage makes mapping (which parallelizes for everyone)
  // a realistic share of the baselines' total, as in the paper's E. coli run.
  const auto w = bench::make_workload(bench::ecoli_like(12.0));
  std::printf("reads: %zu, contigs: %zu\n\n", w.reads.size(),
              w.contigs.size());

  std::printf("%8s %14s %16s %16s\n", "cores", "merAligner(s)",
              "BWA-mem-like(s)", "Bowtie2-like(s)");
  double mer24 = 0, bwa24 = 0, bt24 = 0;
  for (int nranks : {1, 6, 12, 18, 24}) {
    const double m = mer_time(w, nranks);
    const double b = baseline_time(w, nranks,
                                   baseline::BaselineConfig::bwamem_like(19));
    const double t = baseline_time(w, nranks,
                                   baseline::BaselineConfig::bowtie2_like(19));
    std::printf("%8d %14.3f %16.3f %16.3f\n", nranks, m, b, t);
    if (nranks == 24) {
      mer24 = m;
      bwa24 = b;
      bt24 = t;
    }
  }
  std::printf("\nat 24 cores: merAligner %.2fx faster than BWA-mem-like, "
              "%.2fx faster than Bowtie2-like (paper: 6.33x / 7.2x)\n",
              bwa24 / mer24, bt24 / mer24);
  return 0;
}
