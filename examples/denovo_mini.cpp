// Mini de novo assembly pipeline — the HipMer/Meraculous context merAligner
// was built for, end to end in one program:
//
//   1. contig generation: distributed k-mer spectrum (same aggregating-store
//      hash table machinery as the seed index) + UU-graph traversal
//   2. alignment: merAligner maps the paired reads back onto the contigs
//      (the step the paper parallelizes)
//   3. scaffolding: mate pairs link contigs into ordered scaffolds
//
// Ground truth (the simulated genome) is used only for the final report.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "core/scaffold.hpp"
#include "dbg/contig_builder.hpp"
#include "dbg/kmer_spectrum.hpp"
#include "seq/dna.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

int main() {
  using namespace mera;
  const int nranks = 8, ppn = 4;

  // The unknown genome, sampled as a paired-end library.
  const std::string genome = seq::simulate_genome(
      {.length = 150'000, .repeat_fraction = 0.01, .rng_seed = 1234});
  seq::ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = 12.0;
  rp.paired = true;
  rp.insert_mean = 500;
  rp.insert_sd = 30;
  rp.error_rate = 0.002;
  rp.junk_fraction = 0.0;
  rp.grouped = false;
  rp.rng_seed = 1235;
  const auto reads = simulate_reads(genome, rp);
  std::printf("input: %zu paired reads (%.0fx coverage of a %zu kb genome)\n",
              reads.size(), rp.depth, genome.size() / 1000);

  // ---- stage 1: contig generation -----------------------------------------
  const int k = 31;
  pgas::Runtime rt1(pgas::Topology(nranks, ppn));
  dbg::KmerSpectrum spectrum(rt1.topo(), {k, 1000, true});
  rt1.run([&](pgas::Rank& r) {
    const std::size_t n = reads.size();
    const auto me = static_cast<std::size_t>(r.id());
    const auto p = static_cast<std::size_t>(r.nranks());
    r.phase("kmer.count");
    for (std::size_t i = n * me / p; i < n * (me + 1) / p; ++i)
      spectrum.count_read(r, reads[i].seq);
    spectrum.finish_count(r);
    r.phase("kmer.insert");
    for (std::size_t i = n * me / p; i < n * (me + 1) / p; ++i)
      spectrum.insert_read(r, reads[i].seq);
    spectrum.finish_insert(r);
  });
  const auto contig_seqs = dbg::build_contigs(spectrum, nranks, {3, 3, 200});
  std::vector<seq::SeqRecord> contigs;
  for (std::size_t i = 0; i < contig_seqs.size(); ++i)
    contigs.push_back({"asm_contig" + std::to_string(i), contig_seqs[i], ""});
  std::size_t asm_bases = 0, longest = 0;
  for (const auto& c : contigs) {
    asm_bases += c.seq.size();
    longest = std::max(longest, c.seq.size());
  }
  std::printf("contigs: %zu (%.1f kb assembled, longest %zu bp, %zu distinct "
              "k-mers)\n",
              contigs.size(), asm_bases / 1000.0, longest,
              spectrum.total_distinct());

  // ---- stage 2: align the reads back onto the contigs ---------------------
  core::IndexConfig icfg;
  icfg.k = k;
  icfg.fragment_len = 2048;
  core::SessionConfig scfg;
  scfg.permute_queries = false;  // mates stay pairable by index
  pgas::Runtime rt2(pgas::Topology(nranks, ppn));
  const auto ref = core::IndexedReference::build(rt2, contigs, icfg);
  core::AlignSession session(ref, scfg);
  core::VectorSink sink(rt2.nranks());
  const auto res = session.align_batch(rt2, reads, sink);
  std::printf("alignment: %.1f%% of reads mapped (%.1f%% exact fast path), "
              "%.3f simulated s\n",
              100.0 * res.stats.aligned_fraction(),
              100.0 * res.stats.exact_fraction(),
              ref.build_report().total_time_s() + res.total_time_s());

  // ---- stage 3: scaffolding ------------------------------------------------
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
  for (const auto& c : contigs) lengths.push_back(c.seq.size());
  core::Scaffolder scaffolder(lengths,
                              {.insert_mean = rp.insert_mean, .min_links = 4});
  scaffolder.add_pairs(core::Scaffolder::pair_adjacent(per_read, aligned));
  const auto scaffolds = scaffolder.build();
  std::size_t chained = 0;
  for (const auto& s : scaffolds)
    if (s.contigs.size() > 1) chained += s.contigs.size();
  std::printf("scaffolds: %zu chains; %zu of %zu contigs linked; largest "
              "chain %zu contigs\n",
              scaffolds.size(), chained, contigs.size(),
              scaffolds.empty() ? 0 : scaffolds.front().contigs.size());

  // ---- report vs. ground truth ---------------------------------------------
  std::size_t true_contigs = 0;
  for (const auto& c : contigs)
    if (genome.find(c.seq) != std::string::npos ||
        genome.find(seq::reverse_complement(c.seq)) != std::string::npos)
      ++true_contigs;
  std::printf("\nground truth check: %zu/%zu contigs are exact genome "
              "substrings; assembly covers %.1f%% of the genome\n",
              true_contigs, contigs.size(),
              100.0 * static_cast<double>(asm_bases) /
                  static_cast<double>(genome.size()));
  return 0;
}
