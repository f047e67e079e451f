// The file-stream workloads (human_stream, wheat_stream, human_sharded).
//
// The system under test runs in a child process (this binary re-executed
// with --child), so its peak RSS is its own: input generation and the SAM
// check stay in the parent. The child runs the library sequence
// meraligner_cli's main() runs — build the index from FASTA, open a session,
// stream the FASTQ batch files through align_batch_files into a SamFileSink
// — with the CLI's default configuration.
#pragma once

#include <string>

#include "common.hpp"
#include "workload.hpp"

namespace e2e {

struct StreamOptions {
  const WorkloadDef* workload = nullptr;
  std::string dir;         ///< working directory holding the inputs
  double seconds = 10.0;   ///< timed budget of the passes
  bool trace = false;      ///< per-layer run instead of end-to-end
  std::string trace_path;  ///< Chrome trace written by a traced run
  bool setup_only = false; ///< child: time one set-up, then exit
};

/// Parent side: runs the child, checks every SAM it wrote, and fills the
/// end-to-end (or, traced, per-layer) metrics.
[[nodiscard]] RunResult run_stream_workload(const StreamOptions& o,
                                            const Inputs& in);

/// Child side (--child): set-up, timed passes, and for a traced run the
/// layer replays; results go to <dir>/child.txt. With setup_only, one timed
/// set-up into <dir>/setup.txt.
void run_stream_child(const StreamOptions& o);

}  // namespace e2e
