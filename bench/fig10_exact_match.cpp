// Figure 10: impact of the exact-match optimization (Lemma 1 + target
// fragmentation) on the aligning phase, split into communication and
// computation.
//
// Paper: aligning phase 2.8x / 3.4x / 3.1x faster at 480 / 1920 / 7680
// cores; at 480 cores computation improves 2.48x and communication 2.82x;
// ~59% of aligned reads took the fast path; optimized aligning phase scales
// 15.9x from 480 -> 7680 cores.
#include <cstdio>
#include <limits>

#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"

namespace {

using namespace mera;

struct PhaseSplit {
  double comm_s = 0, comp_s = 0, total_s = 0;
  double exact_frac = 0;
  std::uint64_t sw_calls = 0, lookups = 0;
};

PhaseSplit align_phase(const bench::Workload& w, int nranks, int ppn,
                       bool exact, std::size_t fragment_len) {
  // An unmarked reference (exact_match off) disables the session's
  // Lemma-1 path, so the index knob alone switches the optimization.
  core::IndexConfig cfg;
  cfg.exact_match = exact;
  cfg.fragment_len = fragment_len;
  pgas::Runtime rt(pgas::Topology(nranks, ppn));
  const auto ref = core::IndexedReference::build(rt, w.contigs, cfg);
  core::AlignSession session(ref);
  core::CountingSink sink;
  const auto res = session.align_batch(rt, w.reads, sink);
  const auto* ph = res.report.find("align");
  PhaseSplit out;
  out.comm_s = ph->comm_max();
  out.comp_s = ph->cpu_max();
  out.total_s = ph->time_s();
  out.exact_frac = res.stats.exact_fraction();
  out.sw_calls = res.stats.sw_calls;
  out.lookups = res.stats.seed_lookups;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 10 — exact-match optimization impact on the aligning phase",
      "Fig. 10: 2.8x/3.4x/3.1x at 480/1920/7680 cores; ~59% reads exact; "
      "comm and comp both cut");

  const auto w = bench::make_workload(bench::human_like(1'200'000, 4.0));
  std::printf("reads: %zu\n\n", w.reads.size());

  std::printf("%8s | %10s %10s %10s | %10s %10s %10s | %8s | %8s\n", "cores",
              "comm-no", "comp-no", "total-no", "comm-yes", "comp-yes",
              "total-yes", "factor", "exact%");
  for (int nranks : {8, 16, 32}) {
    const auto off = align_phase(w, nranks, 4, false, 1024);
    const auto on = align_phase(w, nranks, 4, true, 1024);
    std::printf(
        "%8d | %10.3f %10.3f %10.3f | %10.3f %10.3f %10.3f | %7.1fx | %7.1f%%\n",
        nranks, off.comm_s, off.comp_s, off.total_s, on.comm_s, on.comp_s,
        on.total_s, off.total_s / on.total_s, 100.0 * on.exact_frac);
  }

  // Ablation: fragment length's effect on the
  // fraction of reads eligible for the fast path.
  std::printf("\nfragment-length ablation (16 cores):\n");
  std::printf("%14s %12s %14s %14s\n", "fragment_len", "exact%", "SW calls",
              "lookups");
  for (std::size_t flen :
       {std::size_t{256}, std::size_t{1024}, std::size_t{4096},
        std::numeric_limits<std::size_t>::max()}) {
    const auto r = align_phase(w, 16, 4, true, flen);
    if (flen == std::numeric_limits<std::size_t>::max())
      std::printf("%14s", "whole-target");
    else
      std::printf("%14zu", flen);
    std::printf(" %11.1f%% %14llu %14llu\n", 100.0 * r.exact_frac,
                static_cast<unsigned long long>(r.sw_calls),
                static_cast<unsigned long long>(r.lookups));
  }
  return 0;
}
