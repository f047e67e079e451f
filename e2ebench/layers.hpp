// Per-layer metrics of a traced run (--trace 1).
//
// Two sources, both measured from outside the library (no instrumentation
// inside src/):
//  * PathTally — the counters the system already returns per batch
//    (PipelineStats, cache deltas, phase reports, shard walls, prefetch
//    load/stall) summed over the traced passes, plus the `phase:align` spans
//    the pgas runtime records while the tracer is on;
//  * replay_layers — each layer's public functions called directly on the
//    workload's own data (a sample of its reads against its reference), each
//    replay wrapped in a bench-side span.
// A layer that is not on a workload's path (shards off the sharded workload,
// the socket gate off the daemon workload, prefetch on the daemon, the
// off-node caches on the sharded workload's one-node runtimes) reports 0.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/align_session.hpp"
#include "seq/fasta.hpp"
#include "serve/backend.hpp"
#include "shard/sharded_session.hpp"

namespace e2e {

/// Every per-layer metric a traced run prints, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_units();

/// Work counters of the traced passes. A pass is one walk over the
/// workload's batches (one stream, or one replay of the daemon payloads);
/// "per pass" metrics divide by `passes`.
struct PathTally {
  mera::core::PipelineStats stats;
  mera::cache::CacheCounters seed_cache, target_cache;
  double align_model_s = 0.0;  ///< LogGP-modeled align phase (not measured)
  std::size_t passes = 0, batches = 0, runs = 0;
  double load_s = 0.0, stall_s = 0.0;  ///< prefetch (file streams only)
  double shard_outside_s = 0.0;        ///< sharded: wall - slowest shard
  std::vector<double> shard_imbalance;
  int shard_parallelism = 0;

  void add(const mera::core::BatchResult& b);
  void add(const mera::shard::ShardedBatchResult& b);
  void add(const mera::serve::BatchSummary& b);
  template <typename StreamResult>
  void add_stream(const StreamResult& s) {
    ++passes;
    load_s += s.load_wall_s;
    stall_s += s.stall_s;
  }

 private:
  /// One Runtime::run's cache deltas and modeled align time.
  void add_run(const mera::cache::CacheCounters& seed,
               const mera::cache::CacheCounters& target,
               const mera::pgas::PhaseReport& report);
};

/// Daemon-only serve metrics; zero elsewhere.
struct ServeTally {
  double gate_wait_ms = 0.0;      ///< mean FIFO-gate wait per batch
  double backend_batch_ms = 0.0;  ///< p50 in-process Backend::align_batch
};

/// Adds the counter-derived metrics. `events` is the parsed trace of the
/// traced passes; `overhead_frac` is traced wall / untraced wall - 1.
void add_path_metrics(const PathTally& t, const ServeTally& serve,
                      const std::vector<TraceEvent>& events,
                      double overhead_frac, MetricTable& out);

/// Tracing overhead from per-pass walls: best traced pass over best
/// untraced pass, minus 1. Best-of keeps the process's first (warm-up)
/// pass from biasing either side.
[[nodiscard]] double trace_overhead(const std::vector<double>& untraced_s,
                                    const std::vector<double>& traced_s);

/// Stops the global tracer, writes its Chrome trace to `path`, prints each
/// bench span's count/total/self seconds to stderr, and returns the events.
[[nodiscard]] std::vector<TraceEvent> finish_trace(const std::string& path);

struct ReplayInputs {
  const mera::core::IndexedReference& ref;
  const mera::core::SessionConfig& cfg;
  std::span<const mera::seq::SeqRecord> reads;  ///< the workload's reads
  /// Parse replay input: the stream's FASTQ batch files, or (daemon) the
  /// FASTQ frame payloads.
  std::vector<std::string> batch_files;
  std::span<const std::string> payloads;
};

/// Runs the layer replays and adds their metrics.
void replay_layers(const ReplayInputs& in, MetricTable& out);

/// Appends each metric of `from` named in layer_metric_units() to `to` in
/// canonical order; returns the names that are missing.
[[nodiscard]] std::vector<std::string> order_layer_metrics(
    const std::vector<Metric>& from, MetricTable& to);

}  // namespace e2e
