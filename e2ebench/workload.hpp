// The benchmark's four workloads and the seeded inputs each one runs on.
//
// Two synthetic genome families stand in for the paper's datasets (see
// seq/genome_sim.hpp): "human" (3% repeats, 101 bp reads) and "wheat" (25%
// repeats, 150 bp reads). Inputs depend only on (workload family, seed), so
// the same seed always yields byte-identical FASTA/FASTQ; human_sharded and
// daemon_small reuse human_stream's inputs so the gap between them is the
// cost of the layers they add, not of different data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "seq/fasta.hpp"

namespace e2e {

/// Which system-under-test path a workload drives.
enum class Path {
  kPlain,    ///< IndexedReference + AlignSession file stream (the CLI path)
  kSharded,  ///< ShardedReference + ShardedAlignSession file stream
  kDaemon,   ///< a live meralignerd fed over its UNIX socket
};

struct WorkloadDef {
  std::string_view name;
  Path path;
  /// Input family (1 = human, 2 = wheat), mixed into the seed: workloads of
  /// one family share inputs, and never collide with the other family's.
  std::uint64_t family;
  std::size_t genome_len;
  double repeat_fraction;
  std::size_t read_len;
  double depth;             ///< reads in one stream pass = depth*genome/len
  int files;                ///< FASTQ batch files the pass is split into
  double min_truth_recall;  ///< sanity floor: below it the run is incorrect
};

/// Unknown names return nullptr.
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);
[[nodiscard]] std::string workload_names();  ///< "a|b|c|d" for usage text

struct Inputs {
  std::vector<mera::seq::SeqRecord> contigs;
  std::vector<mera::seq::SeqRecord> reads;  ///< grouped by genome position
};

[[nodiscard]] Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed);

/// Files inside a workload's working directory.
[[nodiscard]] std::string contigs_path(const std::string& dir);
[[nodiscard]] std::vector<std::string> batch_paths(const std::string& dir,
                                                   int files);

/// Writes contigs.fa and the stream's FASTQ batch files into `dir`.
void write_inputs(const Inputs& in, const WorkloadDef& w,
                  const std::string& dir);

}  // namespace e2e
