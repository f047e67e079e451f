// Figure 8: distributed seed index construction time with and without the
// "aggregating stores" optimization (S = 1000), at three concurrencies.
//
// Paper: 480 cores 1229 s -> 262 s (4.7x), 1920 cores (3.9x), 7680 cores
// (4.8x); optimized construction scales 12.7x from 480 -> 7680 cores (16x
// cores). Expect: a consistent multi-x improvement factor at every rank
// count, and near-linear scaling of the optimized build.
#include <cstdio>

#include "bench_common.hpp"
#include "core/indexed_reference.hpp"

namespace {

using namespace mera;

double index_build_time(const bench::Workload& w, int nranks, int ppn,
                        bool aggregating, std::uint64_t* msgs,
                        std::uint64_t* atomics) {
  core::IndexConfig cfg;
  cfg.aggregating_stores = aggregating;
  pgas::Runtime rt(pgas::Topology(nranks, ppn));
  const auto ref = core::IndexedReference::build(rt, w.contigs, cfg);
  const auto* ph = ref.build_report().find("index.build");
  if (msgs) *msgs = ph->traffic.remote_msgs();
  if (atomics) *atomics = ph->traffic.atomics;
  return ph->time_s();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 8 — seed index construction, aggregating stores on/off",
      "Fig. 8: 4.7x / 3.9x / 4.8x at 480 / 1920 / 7680 cores, S=1000");

  // Construction-dominated workload: big target set, few reads.
  bench::WorkloadSpec spec = bench::human_like(3'000'000, 0.2);
  const auto w = bench::make_workload(spec);
  std::printf("targets: %zu contigs (%zu Mbp genome), S=1000\n\n",
              w.contigs.size(), w.genome_len / 1'000'000);

  std::printf("%8s %16s %16s %10s %16s %16s\n", "cores", "w/o opt(s)",
              "w/ opt(s)", "factor", "msgs w/o", "msgs w/");
  double opt_first = -1;
  int cores_first = 0;
  double opt_last = -1;
  int cores_last = 0;
  for (int nranks : {8, 16, 32}) {
    std::uint64_t msgs_naive = 0, msgs_agg = 0, at_n = 0, at_a = 0;
    const double t_naive =
        index_build_time(w, nranks, 4, false, &msgs_naive, &at_n);
    const double t_agg = index_build_time(w, nranks, 4, true, &msgs_agg, &at_a);
    std::printf("%8d %16.3f %16.3f %9.1fx %16llu %16llu\n", nranks, t_naive,
                t_agg, t_naive / t_agg,
                static_cast<unsigned long long>(msgs_naive),
                static_cast<unsigned long long>(msgs_agg));
    if (opt_first < 0) {
      opt_first = t_agg;
      cores_first = nranks;
    }
    opt_last = t_agg;
    cores_last = nranks;
  }
  std::printf(
      "\noptimized build scaling %d -> %d cores: %.1fx speedup on %.0fx "
      "cores (paper: 12.7x on 16x)\n",
      cores_first, cores_last, opt_first / opt_last,
      static_cast<double>(cores_last) / cores_first);
  return 0;
}
