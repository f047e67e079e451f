#include "workload.hpp"

#include <array>
#include <cstdio>

#include "seq/fastq.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace e2e {

namespace {

// Sizes are set so one stream pass takes a few seconds on a 4-core x86 host:
// a run repeats whole passes (fresh session each, as separate CLI runs would)
// until --seconds is spent, and reports rates over all of them.
constexpr std::array<WorkloadDef, 4> kWorkloads{{
    // Lemma-1 exact path + seed lookups dominate; SW is a minority.
    {"human_stream", Path::kPlain, 1, 2'000'000, 0.03, 101, 2.0, 16,
     0.80},
    // Repeats: many candidates per read and truncated hit lists, so SW
    // screen/traceback, the target cache and SAM formatting dominate.
    {"wheat_stream", Path::kPlain, 2, 1'500'000, 0.25, 150, 0.5, 16,
     0.50},
    // human_stream's inputs through K=4 shards on 2-rank runtimes.
    {"human_sharded", Path::kSharded, 1, 2'000'000, 0.03, 101, 2.0, 16,
     0.80},
    // human_stream's genome and reads as 64-read frames to a live daemon.
    {"daemon_small", Path::kDaemon, 1, 2'000'000, 0.03, 101, 2.0, 16,
     0.80},
}};

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const WorkloadDef& w : kWorkloads) {
    if (!out.empty()) out += '|';
    out += w.name;
  }
  return out;
}

Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed) {
  const std::uint64_t base = seed * 1000 + w.family * 100;
  mera::seq::GenomeParams gp;
  gp.length = w.genome_len;
  gp.repeat_fraction = w.repeat_fraction;
  gp.rng_seed = base + 1;
  const std::string genome = mera::seq::simulate_genome(gp);

  mera::seq::ContigParams cp;
  cp.min_len = 800;
  cp.max_len = 4000;
  cp.rng_seed = base + 2;
  Inputs in;
  in.contigs = mera::seq::chop_into_contigs(genome, cp);

  mera::seq::ReadSimParams rp;
  rp.read_len = w.read_len;
  rp.depth = w.depth;
  rp.error_rate = 0.004;
  rp.junk_fraction = 0.01;
  rp.grouped = true;
  rp.rng_seed = base + 3;
  in.reads = mera::seq::simulate_reads(genome, rp);
  return in;
}

std::string contigs_path(const std::string& dir) { return dir + "/contigs.fa"; }

std::vector<std::string> batch_paths(const std::string& dir, int files) {
  std::vector<std::string> out;
  for (int i = 0; i < files; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/reads_%03d.fastq", i);
    out.push_back(dir + name);
  }
  return out;
}

void write_inputs(const Inputs& in, const WorkloadDef& w,
                  const std::string& dir) {
  mera::seq::write_fasta(contigs_path(dir), in.contigs);
  const auto paths = batch_paths(dir, w.files);
  const std::size_t n = in.reads.size();
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const std::size_t lo = n * f / paths.size();
    const std::size_t hi = n * (f + 1) / paths.size();
    mera::seq::write_fastq(
        paths[f], std::vector<mera::seq::SeqRecord>(
                      in.reads.begin() + static_cast<std::ptrdiff_t>(lo),
                      in.reads.begin() + static_cast<std::ptrdiff_t>(hi)));
  }
}

}  // namespace e2e
