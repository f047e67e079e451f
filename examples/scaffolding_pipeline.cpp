// Scaffolding example: the Meraculous use case that motivated merAligner.
//
// In a de novo assembly pipeline, contigs have just been generated and the
// scaffolder needs to know which contigs are adjacent. That evidence comes
// from aligning *paired* reads back onto the contigs: a pair whose two mates
// align to different contigs "links" those contigs, and the insert size
// constrains the gap between them. This example runs the full step:
//
//   genome -> contigs (with gaps)  +  paired reads
//   -> merAligner (reads vs contigs)
//   -> core::Scaffolder (links, gap estimates, contig chains)
//   -> scaffold report vs ground truth
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "core/scaffold.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

int main() {
  using namespace mera;

  // Assembly state: contigs cover the genome with unassembled gaps.
  const std::string genome = seq::simulate_genome({.length = 400'000,
                                                   .repeat_fraction = 0.02,
                                                   .rng_seed = 7});
  seq::ContigParams cp;
  cp.min_len = 1500;
  cp.max_len = 6000;
  cp.gap_min = 20;
  cp.gap_max = 300;
  cp.rng_seed = 8;
  const auto contigs = chop_into_contigs(genome, cp);

  // Paired-end library, insert 700 +- 40: long enough to span contig gaps.
  seq::ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = 6.0;
  rp.paired = true;
  rp.insert_mean = 700;
  rp.insert_sd = 40;
  rp.error_rate = 0.004;
  rp.grouped = false;  // keep mates adjacent in the file
  rp.rng_seed = 9;
  const auto reads = simulate_reads(genome, rp);
  std::printf("scaffolding input: %zu contigs, %zu paired reads\n",
              contigs.size(), reads.size());

  // Align reads onto contigs (the rate-limiting Meraculous step).
  core::IndexConfig icfg;
  icfg.k = 31;
  icfg.fragment_len = 2048;
  core::SessionConfig scfg;
  scfg.permute_queries = false;  // mates must stay pairable by index
  pgas::Runtime rt(pgas::Topology(8, 4));
  const auto ref = core::IndexedReference::build(rt, contigs, icfg);
  core::AlignSession session(ref, scfg);
  core::VectorSink sink(rt.nranks());
  const auto res = session.align_batch(rt, reads, sink);
  std::printf("aligned %.1f%% of reads (%.1f%% via exact-match fast path)\n",
              100.0 * res.stats.aligned_fraction(),
              100.0 * res.stats.exact_fraction());

  // Best alignment per read, then hand mate pairs to the scaffolder.
  std::map<std::string, core::AlignmentRecord> best;
  for (const auto& a : sink.take()) {
    auto it = best.find(a.query_name);
    if (it == best.end() || a.score > it->second.score)
      best[a.query_name] = a;
  }
  std::vector<core::AlignmentRecord> per_read(reads.size());
  std::vector<bool> aligned(reads.size(), false);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto it = best.find(reads[i].name);
    if (it != best.end()) {
      per_read[i] = it->second;
      aligned[i] = true;
    }
  }

  std::vector<std::size_t> lengths;
  lengths.reserve(contigs.size());
  for (const auto& c : contigs) lengths.push_back(c.seq.size());
  core::Scaffolder scaffolder(lengths,
                              {.insert_mean = rp.insert_mean, .min_links = 4});
  scaffolder.add_pairs(
      core::Scaffolder::pair_adjacent(per_read, aligned));

  // Link quality vs ground truth.
  const auto links = scaffolder.links();
  int adjacent_links = 0;
  for (const auto& l : links) adjacent_links += (l.to == l.from + 1) ? 1 : 0;
  std::printf("\n%zu accepted links, %d connect truly adjacent contigs "
              "(%.1f%%)\n",
              links.size(), adjacent_links,
              links.empty() ? 0.0 : 100.0 * adjacent_links / links.size());

  // Build scaffolds and compare gap estimates with the simulated truth.
  const auto scaffolds = scaffolder.build();
  std::size_t in_chains = 0;
  for (const auto& s : scaffolds)
    if (s.contigs.size() > 1) in_chains += s.contigs.size();
  std::printf("scaffolds: %zu chains covering %zu of %zu contigs\n",
              scaffolds.size(), in_chains, contigs.size());

  const auto& main_sc = scaffolds.front();
  std::printf("\nlargest scaffold (%zu contigs):\n", main_sc.contigs.size());
  std::printf("%-26s %-26s %12s %12s\n", "contig", "next", "est.gap",
              "true gap");
  for (std::size_t i = 0; i + 1 < main_sc.contigs.size() && i < 12; ++i) {
    const auto a = main_sc.contigs[i];
    const auto b = main_sc.contigs[i + 1];
    const auto ta = seq::parse_contig_truth(contigs[a].name);
    const auto tb = seq::parse_contig_truth(contigs[b].name);
    const long true_gap = tb.start >= ta.end
                              ? static_cast<long>(tb.start - ta.end)
                              : -static_cast<long>(ta.end - tb.start);
    std::printf("%-26s %-26s %12.0f %12ld\n", contigs[a].name.c_str(),
                contigs[b].name.c_str(), main_sc.gaps[i], true_gap);
  }
  return 0;
}
