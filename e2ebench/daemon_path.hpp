// The daemon workload (daemon_small): a live meralignerd, spawned from the
// build next to this binary, fed by a closed loop of two connections
// (tenants "a" and "b", zero think time) that each send 64-read FASTQ Batch
// frames and wait for the Sam reply before sending the next.
#pragma once

#include <string>

#include "common.hpp"
#include "workload.hpp"

namespace e2e {

struct DaemonOptions {
  std::string dir;         ///< working directory (inputs, sockets)
  double seconds = 10.0;   ///< closed-loop traffic budget
  bool trace = false;
  std::string trace_path;
  const WorkloadDef* workload = nullptr;
};

[[nodiscard]] RunResult run_daemon_workload(const DaemonOptions& o,
                                            const Inputs& in);

}  // namespace e2e
