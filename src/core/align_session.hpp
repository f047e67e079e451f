// The aligning layer of the session-based aligner API.
//
// An AlignSession binds query-side configuration (software caches, seed
// thresholds, SW scoring and ISA tier, load balancing) to a prebuilt
// core::IndexedReference and aligns query batches against it, repeatedly:
//
//   auto ref = IndexedReference::build(rt, targets, icfg);   // pay once
//   AlignSession session(ref, scfg);
//   VectorSink sink(rt.nranks());
//   auto r1 = session.align_batch(rt, batch1, sink);         // io.reads+align
//   auto r2 = session.align_batch(rt, batch2, sink);         // index reused
//
// Each batch is a fresh SPMD run whose PhaseReport contains only io.reads and
// align — never index.build/index.mark, which belong to the reference — so
// the per-batch cost of index reuse is directly visible. The session's
// software caches (Section III-B) persist across batches: a seed or target
// fetched for batch 1 is a warm hit for batch 2.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/extension.hpp"
#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "core/stats.hpp"
#include "pgas/runtime.hpp"
#include "seq/fasta.hpp"

namespace mera::exec {
class ThreadPool;
}
namespace mera::cache {
struct SnapshotMeta;
}

namespace mera::core {

/// Query-side knobs (Sections III-B, IV-B, IV-C). Everything that shapes the
/// index itself lives in IndexConfig.
struct SessionConfig {
  // Software caches (Section III-B); capacities are per simulated node.
  bool seed_cache = true;
  std::size_t seed_cache_capacity = 1u << 18;
  bool target_cache = true;
  std::size_t target_cache_bytes = 64u << 20;
  /// Eviction-aware admission on both caches (multi-tenant batch streams):
  /// a full cache refuses entries colder than anything it would have to
  /// evict for them, so one tenant's cold scan cannot churn out another's
  /// proven-hot working set — including a working set restored by
  /// load_caches(), whose per-entry hit counters persist. Never changes
  /// emitted records, only which lookups stay cached.
  bool cache_admission = false;

  /// Take the Lemma-1 exact-match fast path (requires a reference built with
  /// IndexConfig::exact_match; silently disabled otherwise).
  bool exact_match = true;

  // Load balancing (Section IV-B): applied per batch, to the batch's query
  // vector, before the blocked rank partition.
  bool permute_queries = true;
  std::uint64_t permute_seed = 0xC0FFEEULL;

  // Aligning phase.
  std::size_t max_hits_per_seed = 32;  ///< Section IV-C threshold
  align::ExtensionConfig extension{};  ///< incl. the SW ISA tier
  /// Minimum score to report; -1 = auto (match score * k, i.e. at least the
  /// seed region must align).
  int min_report_score = -1;
};

/// Outcome of one align_batch() call.
struct BatchResult {
  /// Phases of this batch only: startup, io.reads, align. Index phases never
  /// appear here — they are in IndexedReference::build_report().
  pgas::PhaseReport report;
  PipelineStats stats;  ///< summed over ranks, this batch only
  std::vector<PipelineStats> per_rank;
  cache::CacheCounters seed_cache;    ///< this batch's cache activity
  cache::CacheCounters target_cache;
  /// SIMD lane occupancy of this batch's traced sweeps, summed over ranks.
  /// Deliberately outside PipelineStats: every ISA tier produces identical
  /// PipelineStats by contract, while lane shapes depend on the tier.
  align::LaneStats lane_stats;

  [[nodiscard]] double total_time_s() const { return report.total_time_s(); }
};

/// Add one batch's counters to the global metrics registry: its phase
/// report, reads and alignments, both caches' counters and the SW calls and
/// cells (labelled align::sw_metric_labels(extension)), every series with
/// `extra` appended to its labels. Each session batch adds its own with no
/// extra labels; the daemon adds each tenant's batch again under a `tenant`
/// label.
void add_batch_counters(
    const pgas::PhaseReport& report, const PipelineStats& stats,
    const cache::CacheCounters& seed_cache,
    const cache::CacheCounters& target_cache,
    const align::ExtensionConfig& extension,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// How align_batch_files() walks a stream of reads-batch files.
struct FileStreamOptions {
  /// Loader pool; null = a private single-thread pool for the call. One
  /// worker is enough: at most one batch is ever in flight.
  exec::ThreadPool* pool = nullptr;
};

/// Outcome of one align_batch_files() stream; BatchT is the per-batch
/// result (core::BatchResult, or shard::ShardedBatchResult for the sharded
/// session — one accounting contract for both). The per-phase report makes
/// the overlap measurable: wall_s approaches the align time alone while the
/// summed load time hides inside it.
template <typename BatchT>
struct BasicFileStreamResult {
  std::vector<BatchT> batches;  ///< one per file, in file order
  pgas::PhaseReport report;     ///< batches' phases appended in order
  PipelineStats stats;          ///< summed over batches
  double wall_s = 0.0;       ///< measured real end-to-end seconds
  double load_wall_s = 0.0;  ///< summed real load seconds (overlapped with aligning)
  double stall_s = 0.0;      ///< real seconds aligning sat waiting on a load

  /// Simulated (modeled) serial time, for comparison against wall_s.
  [[nodiscard]] double total_time_s() const { return report.total_time_s(); }
};

using FileStreamResult = BasicFileStreamResult<BatchResult>;

class AlignSession {
 public:
  /// The reference handle is cheap (shared immutable state). The Lemma-1
  /// fast path runs only when the reference was built with exact-match
  /// marking; on an unmarked reference it is disabled for correctness even
  /// if cfg.exact_match asks for it.
  explicit AlignSession(IndexedReference ref, SessionConfig cfg = {});

  /// Align one in-memory batch; callable any number of times. The runtime's
  /// topology must match the one the reference was built on. This is the
  /// only way reads enter a session: a reads file is loaded first
  /// (core::load_read_batch), then aligned from memory.
  BatchResult align_batch(pgas::Runtime& rt,
                          const std::vector<seq::SeqRecord>& reads,
                          AlignmentSink& sink);
  /// In-place variant for callers that hand the batch over (the prefetched
  /// file stream): query permutation happens in place, no copy.
  BatchResult align_batch(pgas::Runtime& rt, std::vector<seq::SeqRecord>&& reads,
                          AlignmentSink& sink);

  /// Align a stream of reads-batch files (FASTQ or SeqDB) in file order,
  /// loading batch N+1 while batch N aligns. Emission into `sink` is
  /// strictly batch-ordered and bit-identical to calling
  /// align_batch(rt, load_read_batch(path), sink) per file.
  /// `on_batch(index, result)` fires as each batch completes, so callers
  /// can report progress while the stream is still running.
  FileStreamResult align_batch_files(
      pgas::Runtime& rt, const std::vector<std::string>& paths,
      AlignmentSink& sink, const FileStreamOptions& opt = {},
      const std::function<void(std::size_t, const BatchResult&)>& on_batch =
          {});

  [[nodiscard]] const SessionConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const IndexedReference& reference() const noexcept {
    return ref_;
  }
  [[nodiscard]] std::size_t batches_aligned() const noexcept {
    return batches_done_;
  }
  /// Cumulative cache counters over the whole session — including any
  /// history restored by load_caches().
  [[nodiscard]] cache::CacheCounters seed_cache_counters() const;
  [[nodiscard]] cache::CacheCounters target_cache_counters() const;

  // --- cache persistence (warm start across sessions and processes) --------
  /// Snapshot this session's software caches — entries, per-entry hit
  /// counts, cumulative counters — into `path` (one file), stamped with the
  /// seed length, `rt`'s cost model and the reference fingerprint so it can
  /// never be loaded against the wrong index. Callable at any time; safe
  /// concurrently with an in-flight align_batch (each cache shard is
  /// snapshotted under its lock). Throws cache::CacheSnapshotError on I/O
  /// failure. A session with both caches disabled writes a valid (empty)
  /// snapshot.
  void save_caches(const pgas::Runtime& rt, const std::string& path) const;
  /// Replace this session's cache contents with a snapshot saved by
  /// save_caches — typically by a previous process over the same reference.
  /// Warm-started batches emit bit-identical records/SAM to cold ones;
  /// persistence changes seconds, never bytes. Throws
  /// cache::CacheSnapshotError (caches untouched) when the snapshot is
  /// missing, truncated, corrupt, or was recorded against a different
  /// reference / topology / cost model.
  ///
  /// Counter baseline: restored CacheCounters are cumulative across
  /// processes (seed_cache_counters() includes the saving session's
  /// history), and the per-batch delta baseline is re-seeded to the loaded
  /// values — the next BatchResult reports only post-load cache activity,
  /// never the imported history.
  void load_caches(const pgas::Runtime& rt, const std::string& path);

 private:
  BatchResult run_batch(pgas::Runtime& rt,
                        std::span<const seq::SeqRecord> reads,
                        AlignmentSink& sink);
  /// What this session's snapshots are stamped with and validated against.
  [[nodiscard]] cache::SnapshotMeta snapshot_meta(const pgas::Runtime& rt) const;

  IndexedReference ref_;
  SessionConfig cfg_;
  std::optional<cache::SeedIndexCache> scache_;
  std::optional<cache::TargetCache> tcache_;
  /// One per rank: the traced sweep's buffers, reused by every batch
  /// instead of being allocated per flush on the per-batch rank threads.
  std::vector<align::TraceScratch> trace_scratch_;
  cache::CacheCounters seed_base_;    // snapshot at last batch end
  cache::CacheCounters target_base_;
  std::size_t batches_done_ = 0;
};

}  // namespace mera::core
