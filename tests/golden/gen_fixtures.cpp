// Regenerates the checked-in golden-test fixtures (contigs.fa, reads.fastq)
// with fixed RNG seeds. Run from the repo root after changing the simulators:
//
//   cmake --build build --target gen_cli_golden_fixtures
//   ./build/tests/gen_cli_golden_fixtures tests/golden
//
// then re-baseline tests/golden/meraligner_cli*.sam from the CLI output (see
// run_cli_golden.cmake for the exact invocations and normalization).
#include <cstdio>
#include <string>

#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

int main(int argc, char** argv) {
  using namespace mera::seq;
  const std::string dir = argc > 1 ? argv[1] : ".";

  GenomeParams gp;
  gp.length = 20'000;
  gp.repeat_fraction = 0.05;
  gp.rng_seed = 1;
  const std::string genome = simulate_genome(gp);

  ContigParams cp;
  cp.rng_seed = 2;
  write_fasta(dir + "/contigs.fa", chop_into_contigs(genome, cp));

  ReadSimParams rp;
  rp.read_len = 101;
  rp.depth = 2.0;
  rp.error_rate = 0.005;
  rp.junk_fraction = 0.02;
  rp.rng_seed = 42;
  const auto reads = simulate_reads(genome, rp);
  write_fastq(dir + "/reads.fastq", reads);

  // Two-batch fixtures for the multi-batch CLI path: the same read set split
  // in half. Aligning both halves against one index must reproduce exactly
  // the single-batch record set, so the same golden SAM covers both paths.
  const auto mid = reads.begin() + static_cast<std::ptrdiff_t>(reads.size() / 2);
  write_fastq(dir + "/reads_a.fastq", {reads.begin(), mid});
  write_fastq(dir + "/reads_b.fastq", {mid, reads.end()});

  // Mixed-length fixture for the emission-order scenario: read i trimmed to
  // 61 + (i % 5) * 10 bases, so the pooled queue buckets the reads into
  // several length classes and flushes them out of discovery order.
  auto mixed = reads;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const std::size_t len = 61 + (i % 5) * 10;
    mixed[i].seq.resize(len);
    mixed[i].qual.resize(len);
  }
  write_fastq(dir + "/reads_mixed.fastq", mixed);

  std::printf(
      "wrote %s/{contigs.fa, reads.fastq, reads_a.fastq, reads_b.fastq, "
      "reads_mixed.fastq} (%zu reads)\n",
      dir.c_str(), reads.size());
  return 0;
}
