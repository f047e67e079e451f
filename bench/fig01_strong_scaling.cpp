// Figure 1: end-to-end strong scaling of merAligner on the human-like and
// wheat-like workloads, with pMap+BWA-mem-like and pMap+Bowtie2-like single
// data points at the top concurrency.
//
// Paper (Cray XC30): human 4147 s @480 -> 185 s @15360 (22x, 0.70 eff.),
// wheat 0.78 efficiency @960->15360; BWA-mem/Bowtie2 points far above the
// merAligner curve. Here ranks sweep 4..64 on the simulated machine; expect
// near-ideal scaling of the merAligner curves and baseline points dominated
// by serial index construction.
#include <cstdio>

#include "baseline/replicated_aligner.hpp"
#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"

namespace {

using namespace mera;

void run_curve(const bench::Workload& w, const std::vector<int>& rank_counts,
               int ppn) {
  std::printf("\n-- %s: %zu contigs, %zu reads --\n", w.name.c_str(),
              w.contigs.size(), w.reads.size());
  std::printf("%8s %14s %14s %12s %12s\n", "cores", "time(s)", "ideal(s)",
              "speedup", "efficiency");
  double t0 = -1.0;
  int c0 = rank_counts.front();
  for (int nranks : rank_counts) {
    pgas::Runtime rt(pgas::Topology(nranks, ppn));
    const auto ref = core::IndexedReference::build(rt, w.contigs);
    core::AlignSession session(ref);
    core::CountingSink sink;
    const auto batch = session.align_batch(rt, w.reads, sink);
    const double t = ref.build_report().total_time_s() + batch.total_time_s();
    if (t0 < 0) t0 = t;
    const double ideal = t0 * c0 / nranks;
    const double speedup = t0 * c0 / nranks / t;  // vs linear from first point
    std::printf("%8d %14.3f %14.3f %11.2fx %11.2f\n", nranks, t, ideal,
                t0 / t, speedup);
  }
}

void baseline_points(const bench::Workload& w, int nranks, int ppn) {
  for (const auto& cfg : {baseline::BaselineConfig::bwamem_like(51),
                          baseline::BaselineConfig::bowtie2_like(51)}) {
    baseline::BaselineConfig c = cfg;
    c.threads_per_instance = ppn / 2;
    pgas::Runtime rt(pgas::Topology(nranks, ppn));
    const auto res =
        baseline::ReplicatedIndexAligner(c).align(rt, w.contigs, w.reads);
    std::printf("%-14s @ %d cores: %10.3f s (serial index %.3f s)\n",
                c.name.c_str(), nranks, res.total_time_s(),
                res.serial_index_time_s());
  }
}

}  // namespace

int main() {
  bench::print_header("Figure 1 — end-to-end strong scaling",
                      "Fig. 1: merAligner human+wheat curves vs ideal; "
                      "BWA-mem / Bowtie2 points");
  const std::vector<int> ranks{4, 8, 16, 32, 64};
  const int ppn = 8;

  const auto human = bench::make_workload(bench::human_like(1'500'000, 3.0));
  run_curve(human, ranks, ppn);
  std::printf("\nbaseline single points (human-like, pMap-style):\n");
  baseline_points(human, ranks.back(), ppn);

  const auto wheat = bench::make_workload(bench::wheat_like(2'500'000, 1.5));
  run_curve(wheat, ranks, ppn);
  return 0;
}
