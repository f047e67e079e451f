// Streaming query batches against a ShardedReference.
//
// A ShardedAlignSession owns one core::AlignSession per shard and makes the
// K shards behave like a single reference:
//
//   1. every query batch is streamed through every shard's session (each
//      shard sees the full batch — screening is all-vs-all across shards);
//      the K per-shard align_batch calls are independent, so they can run
//      CONCURRENTLY on an exec::ThreadPool (shard_parallelism below), each
//      on its own pgas::Runtime — K runtimes side by side in one process;
//   2. per-shard records are collected, their shard-local target ids are
//      rewritten to global ids through the ShardedReference mapping;
//   3. per (rank, read), the candidates from all shards are reconciled into
//      one deterministic global order — best score first, ties broken by
//      global target id, then target position (then the remaining record
//      fields, so the order is total);
//   4. the reconciled stream is emitted into the caller's AlignmentSink in
//      the usual rank-major, read-order sequence, followed by one
//      batch_end() — sinks cannot tell a sharded session from a plain one.
//
// Because each shard writes into its own private collector and step 3
// imposes a total order, the emitted stream is bit-identical at EVERY
// shard_parallelism — the executor changes wall-clock time, never bytes
// (tests/test_async.cpp asserts this for K in {1,2,4} on the scalar and auto
// SW tiers).
// Single-shard note: with K == 1 there is nothing to merge, so the per-read
// reorder is skipped and records flow through in the shard's own discovery
// order — same records, same rank partition, just not re-sorted.
//
// Equivalence contract: with the per-shard search exhaustive — exact-match
// fast path off and max_hits_per_seed large enough that no lookup truncates
// — the union of per-shard candidates IS the monolithic candidate set
// (targets partition across shards; seed hits and SW extensions are
// per-target), so a K-shard batch reports bit-identical records, SAM content
// and work totals to the equivalent single-IndexedReference session
// (tests/test_shard.cpp proves it for K in {1,2,4}). With the exact-match
// short-circuit or hit truncation enabled, those per-read shortcuts apply
// per shard, and the sharded result may explore more candidates than the
// monolithic one — fine for screening, but not bit-comparable.
//
// Stats: reads are processed once per shard, so shard counters are summed
// for work totals (lookups, SW calls, fetches) while read-scoped counters
// (reads_processed, reads_aligned) count each read ONCE, computed during
// reconciliation. Phase reports are appended shard by shard; total_time_s()
// is the serial composition, time_parallel_s() the per-runtime view (shards
// on K machines run concurrently: the batch costs the slowest shard), and
// wall_s the measured reality of THIS process's executor.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "shard/sharded_reference.hpp"

namespace mera::exec {
class ThreadPool;
}

namespace mera::shard {

/// Session configuration plus the executor axis that only exists when there
/// are K independent shards to drive.
struct ShardedSessionConfig {
  core::SessionConfig session{};
  /// Shards aligned concurrently per batch: 1 = serial (one shard at a
  /// time on the caller's runtime), J >= 2 = that many pool workers, each
  /// running one shard's align_batch on its own runtime, 0 = auto —
  /// min(K, hardware_concurrency / nranks), so shard parallelism never
  /// oversubscribes beyond what one runtime's rank threads already use.
  /// Output is bit-identical at every setting.
  int shard_parallelism = 0;
  /// Optional externally owned executor. When set, the session submits its
  /// shard work here instead of creating a private pool, and J is clamped to
  /// the pool's size — this is how a process hosting many sessions (the
  /// alignment daemon) makes J a single process-wide budget rather than a
  /// per-session one. The pool must outlive the session; null keeps the
  /// lazy private-pool behaviour.
  exec::ThreadPool* pool = nullptr;
};

/// Outcome of one sharded align_batch() call.
struct ShardedBatchResult {
  /// Every shard's batch phases (io.reads, align), appended in shard order.
  pgas::PhaseReport report;
  /// Reconciled totals: work counters summed over shards, read counters
  /// (reads_processed / reads_aligned) counted once per read.
  core::PipelineStats stats;
  /// Each shard's own BatchResult (per-shard stats, cache deltas, report).
  std::vector<core::BatchResult> per_shard;
  /// Traced-sweep lane occupancy summed over shards (the per-shard
  /// breakdown is in per_shard[s].lane_stats).
  align::LaneStats lane_stats;
  /// Shards that actually ran concurrently for this batch (the resolved J).
  int shard_parallelism = 1;
  /// Measured real seconds of the whole batch (dispatch + reconcile) — the
  /// number the executor is supposed to shrink; compare against
  /// total_time_s() (serial model) and time_parallel_s() (ideal model).
  double wall_s = 0.0;
  /// Measured real seconds of each shard's align_batch (including its queue
  /// wait when J < K serializes dispatch) — the repro's answer to the
  /// paper's load-balance table, next to ShardPlan::imbalance()'s prediction.
  std::vector<double> shard_wall_s;

  /// Serial composition (shards streamed one after another on this machine).
  [[nodiscard]] double total_time_s() const { return report.total_time_s(); }
  /// Per-runtime composition (each shard on its own machine): slowest shard.
  [[nodiscard]] double time_parallel_s() const;
  /// Measured load imbalance: max over shards of shard_wall_s / mean.
  /// 1.0 = perfectly balanced; 0.0 when unmeasured.
  [[nodiscard]] double imbalance_measured() const;
};

/// Outcome of one sharded align_batch_files() stream: the same accounting
/// contract as the plain session's, per sharded batch.
using ShardedFileStreamResult = core::BasicFileStreamResult<ShardedBatchResult>;

class ShardedAlignSession {
 public:
  /// The reference handle is cheap (shared immutable state). Query
  /// permutation (Section IV-B) is applied ONCE at this level with
  /// cfg.permute_seed; the per-shard sessions then see the same pre-permuted
  /// order, which keeps every shard's rank partition aligned.
  explicit ShardedAlignSession(ShardedReference ref,
                               core::SessionConfig cfg = {});
  ShardedAlignSession(ShardedReference ref, ShardedSessionConfig cfg);
  ~ShardedAlignSession();
  ShardedAlignSession(ShardedAlignSession&&) noexcept;
  ShardedAlignSession& operator=(ShardedAlignSession&&) noexcept;

  /// Align one in-memory batch against every shard; callable any number of
  /// times. Each shard session's software caches persist across batches.
  ShardedBatchResult align_batch(pgas::Runtime& rt,
                                 const std::vector<seq::SeqRecord>& reads,
                                 core::AlignmentSink& sink);
  /// In-place variant for callers that hand the batch over (the prefetched
  /// file stream): the one-shot permutation happens in place, no copy.
  ShardedBatchResult align_batch(pgas::Runtime& rt,
                                 std::vector<seq::SeqRecord>&& reads,
                                 core::AlignmentSink& sink);

  /// Align a stream of reads-batch files (FASTQ or SeqDB) in file order,
  /// loading batch N+1 while batch N aligns (double buffering). Each file is
  /// loaded once for all K shards. Emission is strictly batch-ordered and
  /// bit-identical to calling align_batch(rt, load_read_batch(path), sink)
  /// per file.
  /// `on_batch(index, result)` fires as each batch completes, so callers
  /// can report progress while the stream is still running.
  ShardedFileStreamResult align_batch_files(
      pgas::Runtime& rt, const std::vector<std::string>& paths,
      core::AlignmentSink& sink, const core::FileStreamOptions& opt = {},
      const std::function<void(std::size_t, const ShardedBatchResult&)>&
          on_batch = {});

  [[nodiscard]] const core::SessionConfig& config() const noexcept {
    return cfg_.session;
  }
  [[nodiscard]] const ShardedSessionConfig& sharded_config() const noexcept {
    return cfg_;
  }
  /// The J that align_batch on an `nranks`-rank runtime will use: the
  /// configured shard_parallelism resolved (0 = auto) and clamped to
  /// [1, num_shards()].
  [[nodiscard]] int effective_parallelism(int nranks) const;
  [[nodiscard]] const ShardedReference& reference() const noexcept {
    return ref_;
  }
  [[nodiscard]] int num_shards() const noexcept { return ref_.num_shards(); }
  [[nodiscard]] std::size_t batches_aligned() const noexcept {
    return batches_done_;
  }
  [[nodiscard]] const core::AlignSession& shard_session(int s) const {
    return *sessions_.at(static_cast<std::size_t>(s));
  }

  // --- cache persistence (warm start across sessions and processes) --------
  /// Snapshot every shard session's software caches into directory `dir`
  /// (created if needed): one self-validating file per shard
  /// (shard-0000.mcache, ...), composed exactly like the ShardedReference's
  /// per-shard indexes. Safe concurrently with an in-flight parallel batch
  /// (each cache shard is snapshotted under its lock). Throws
  /// cache::CacheSnapshotError on I/O failure.
  void save_caches(const pgas::Runtime& rt, const std::string& dir) const;
  /// Load a directory written by save_caches into the K shard sessions.
  /// Each file is validated against its own shard's reference fingerprint,
  /// so a snapshot of a different sharding (other K, other plan) or another
  /// collection is rejected with cache::CacheSnapshotError. Shards load in
  /// order; on a mid-sequence failure the earlier shards stay warm-loaded,
  /// which is harmless — cache contents affect seconds, never bytes. The
  /// per-batch counter baselines re-seed exactly as in
  /// core::AlignSession::load_caches.
  void load_caches(const pgas::Runtime& rt, const std::string& dir);

 private:
  ShardedBatchResult run_batch(pgas::Runtime& rt,
                               const std::vector<seq::SeqRecord>& reads,
                               core::AlignmentSink& sink);

  ShardedReference ref_;
  ShardedSessionConfig cfg_;
  /// One session per shard (AlignSession owns mutex-guarded caches, so the
  /// sessions live behind stable pointers). Their configs disable
  /// permutation — it already happened at this level.
  std::vector<std::unique_ptr<core::AlignSession>> sessions_;
  /// Persistent shard executor, created lazily on the first batch that
  /// resolves to J >= 2 and reused across batches.
  std::unique_ptr<exec::ThreadPool> pool_;
  /// Per-batch collection + reconcile buffers, reused across batches so the
  /// hot loop stops reallocating (defined in the .cpp).
  struct ReconcileScratch;
  std::unique_ptr<ReconcileScratch> scratch_;
  std::size_t batches_done_ = 0;
};

}  // namespace mera::shard
