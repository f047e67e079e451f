#include "shard/sharded_session.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <tuple>
#include <utility>

#include "cache/cache_snapshot.hpp"
#include "core/file_stream.hpp"
#include "core/load_balance.hpp"
#include "exec/task_group.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mera::shard {

namespace {

using core::detail::seconds_since;

/// The deterministic global order of one read's reconciled candidates: best
/// score first, then global target id, then target position; the remaining
/// fields make the order total so ties cannot depend on shard arrival order.
bool better_hit(const core::AlignmentRecord& a, const core::AlignmentRecord& b) {
  return std::tie(b.score, a.target_id, a.t_begin, a.reverse, a.q_begin,
                  a.q_end, a.t_end, a.cigar, a.mismatches, a.exact) <
         std::tie(a.score, b.target_id, b.t_begin, b.reverse, b.q_begin,
                  b.q_end, b.t_end, b.cigar, b.mismatches, b.exact);
}

}  // namespace

/// Internal sink: keeps every record a shard emits, per rank, in emission
/// order, tagged with the read it belongs to. Ranks emit a read's records
/// consecutively and reads in partition order, so each per-rank buffer is
/// already grouped and ordered by read — reconciliation walks the buffers
/// with one cursor per shard. Each shard owns exactly one collector, so
/// concurrent shards never share one (bit-identical output at any J).
class ShardCollectorSink final : public core::AlignmentSink {
 public:
  struct Entry {
    const seq::SeqRecord* read;
    core::AlignmentRecord rec;
  };

  void emit(int rank, const seq::SeqRecord& read,
            core::AlignmentRecord&& rec) override {
    per_rank_[static_cast<std::size_t>(rank)].push_back(
        Entry{&read, std::move(rec)});
  }

  /// Size for `nranks` and empty the buffers, keeping their capacity — a
  /// session reuses its collectors across batches.
  void reset(int nranks) {
    per_rank_.resize(static_cast<std::size_t>(nranks));
    for (auto& entries : per_rank_) entries.clear();
  }

  std::vector<std::vector<Entry>>& per_rank() { return per_rank_; }

 private:
  std::vector<std::vector<Entry>> per_rank_;
};

/// Per-batch working set, reused batch to batch so the reconcile hot loop
/// stops paying K*nranks buffer allocations plus a merge vector per read.
struct ShardedAlignSession::ReconcileScratch {
  /// One rank's read range: reconciled on its own, possibly concurrently
  /// with the other ranks' ranges (hence a cache line of its own).
  struct alignas(64) Range {
    std::vector<std::size_t> cursor;            ///< one per shard
    std::vector<core::AlignmentRecord> merged;  ///< one read's candidates
    std::uint64_t reads_aligned = 0;
  };
  std::vector<ShardCollectorSink> collected;  ///< one per shard
  std::vector<Range> ranges;                  ///< one per rank
};

double ShardedBatchResult::time_parallel_s() const {
  double t = 0.0;
  for (const core::BatchResult& b : per_shard)
    t = std::max(t, b.total_time_s());
  return t;
}

double ShardedBatchResult::imbalance_measured() const {
  if (shard_wall_s.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (const double w : shard_wall_s) {
    sum += w;
    max = std::max(max, w);
  }
  const double mean = sum / static_cast<double>(shard_wall_s.size());
  return mean > 0.0 ? max / mean : 0.0;
}

ShardedAlignSession::ShardedAlignSession(ShardedReference ref,
                                         core::SessionConfig cfg)
    : ShardedAlignSession(std::move(ref),
                          ShardedSessionConfig{std::move(cfg), 0}) {}

ShardedAlignSession::ShardedAlignSession(ShardedReference ref,
                                         ShardedSessionConfig cfg)
    : ref_(std::move(ref)),
      cfg_(std::move(cfg)),
      scratch_(std::make_unique<ReconcileScratch>()) {
  core::SessionConfig per_shard = cfg_.session;
  per_shard.permute_queries = false;  // applied once, at this level
  sessions_.reserve(static_cast<std::size_t>(ref_.num_shards()));
  for (int s = 0; s < ref_.num_shards(); ++s)
    sessions_.push_back(
        std::make_unique<core::AlignSession>(ref_.shard(s), per_shard));
  scratch_->collected.resize(static_cast<std::size_t>(ref_.num_shards()));
}

ShardedAlignSession::~ShardedAlignSession() = default;
ShardedAlignSession::ShardedAlignSession(ShardedAlignSession&&) noexcept =
    default;
ShardedAlignSession& ShardedAlignSession::operator=(
    ShardedAlignSession&&) noexcept = default;

void ShardedAlignSession::save_caches(const pgas::Runtime& rt,
                                      const std::string& dir) const {
  // The file-level writer creates each snapshot's parent directory (== dir)
  // and maps failures to CacheSnapshotError.
  for (int s = 0; s < num_shards(); ++s)
    sessions_[static_cast<std::size_t>(s)]->save_caches(
        rt, cache::shard_snapshot_path(dir, s));
}

void ShardedAlignSession::load_caches(const pgas::Runtime& rt,
                                      const std::string& dir) {
  // A snapshot directory of a different K would either miss a shard file or
  // carry a stray one; both are composition mismatches worth naming before
  // the per-shard fingerprint checks run.
  for (int s = 0; s < num_shards(); ++s) {
    const std::string path = cache::shard_snapshot_path(dir, s);
    if (!std::filesystem::exists(path))
      throw cache::CacheSnapshotError(
          "cache snapshot: " + path + " is missing — " + dir +
          " does not hold a snapshot of this " + std::to_string(num_shards()) +
          "-shard session");
  }
  if (std::filesystem::exists(cache::shard_snapshot_path(dir, num_shards())))
    throw cache::CacheSnapshotError(
        "cache snapshot: " + dir + " holds more than " +
        std::to_string(num_shards()) +
        " shard files — it was saved by a different sharding");
  for (int s = 0; s < num_shards(); ++s)
    sessions_[static_cast<std::size_t>(s)]->load_caches(
        rt, cache::shard_snapshot_path(dir, s));
}

int ShardedAlignSession::effective_parallelism(int nranks) const {
  const int k = ref_.num_shards();
  int j = cfg_.shard_parallelism > 0
              ? cfg_.shard_parallelism
              : exec::ThreadPool::default_parallelism(k, nranks);
  // A shared executor caps J at its worker count: the pool's size is the
  // process-wide budget, and asking a J-wide TaskGroup of blocking shard
  // tasks for more workers than exist would deadlock nothing but also gain
  // nothing.
  if (cfg_.pool)
    j = std::min(j, static_cast<int>(cfg_.pool->size()));
  return std::clamp(j, 1, k);
}

ShardedBatchResult ShardedAlignSession::align_batch(
    pgas::Runtime& rt, const std::vector<seq::SeqRecord>& reads,
    core::AlignmentSink& sink) {
  if (!cfg_.session.permute_queries) return run_batch(rt, reads, sink);
  std::vector<seq::SeqRecord> permuted = reads;
  core::permute_queries(permuted, cfg_.session.permute_seed);
  return run_batch(rt, permuted, sink);
}

ShardedBatchResult ShardedAlignSession::align_batch(
    pgas::Runtime& rt, std::vector<seq::SeqRecord>&& reads,
    core::AlignmentSink& sink) {
  if (cfg_.session.permute_queries)
    core::permute_queries(reads, cfg_.session.permute_seed);
  return run_batch(rt, reads, sink);
}

ShardedFileStreamResult ShardedAlignSession::align_batch_files(
    pgas::Runtime& rt, const std::vector<std::string>& paths,
    core::AlignmentSink& sink, const core::FileStreamOptions& opt,
    const std::function<void(std::size_t, const ShardedBatchResult&)>&
        on_batch) {
  return core::detail::stream_file_batches<ShardedFileStreamResult>(
      paths, opt,
      [&](std::vector<seq::SeqRecord>&& records) {
        return align_batch(rt, std::move(records), sink);
      },
      [&](std::size_t i, const ShardedBatchResult& batch) {
        if (on_batch) on_batch(i, batch);
      });
}

ShardedBatchResult ShardedAlignSession::run_batch(
    pgas::Runtime& rt, const std::vector<seq::SeqRecord>& reads,
    core::AlignmentSink& sink) {
  const obs::Span batch_span("shard.batch", "shard");
  const auto wall0 = obs::wall_now();
  const int nshards = ref_.num_shards();
  const int nranks = rt.nranks();
  const int J = effective_parallelism(nranks);

  std::vector<ShardCollectorSink>& collected = scratch_->collected;
  for (ShardCollectorSink& coll : collected) coll.reset(nranks);

  // ---- 1+2: every shard aligns the full batch; ids go global --------------
  // Each shard writes into its own collector and the per-shard results land
  // in fixed slots, so concurrent and serial dispatch produce identical
  // state by the time reconciliation starts.
  ShardedBatchResult res;
  res.shard_parallelism = J;
  res.per_shard.resize(static_cast<std::size_t>(nshards));
  res.shard_wall_s.assign(static_cast<std::size_t>(nshards), 0.0);
  auto run_shard = [&](int s, pgas::Runtime& shard_rt) {
    const auto ss = static_cast<std::size_t>(s);
    char span_name[32];
    std::snprintf(span_name, sizeof span_name, "shard %d align", s);
    const obs::Span span(span_name, "shard");
    const obs::StopWatch sw;
    ShardCollectorSink& coll = collected[ss];
    res.per_shard[ss] = sessions_[ss]->align_batch(shard_rt, reads, coll);
    for (auto& rank_entries : coll.per_rank())
      for (ShardCollectorSink::Entry& e : rank_entries)
        e.rec.target_id = ref_.to_global(s, e.rec.target_id);
    res.shard_wall_s[ss] = sw.elapsed_s();
  };
  // Concurrent runtimes must not share barriers or phase accounting, so
  // with J > 1 every shard gets a runtime of its own, cloned from the
  // caller's topology and cost model, and runs as a task on the executor.
  // Any shard failure (e.g. topology mismatch) propagates after all shards
  // settle — earliest shard wins, like the serial loop.
  exec::ThreadPool* pool = nullptr;
  if (J > 1) {
    pool = cfg_.pool;
    if (!pool) {
      if (!pool_ || pool_->size() < J)
        pool_ = std::make_unique<exec::ThreadPool>(J);
      pool = pool_.get();
    }
    std::vector<std::unique_ptr<pgas::Runtime>> runtimes(
        static_cast<std::size_t>(nshards));
    exec::TaskGroup group(*pool);
    for (int s = 0; s < nshards; ++s) {
      auto& shard_rt = runtimes[static_cast<std::size_t>(s)];
      shard_rt =
          std::make_unique<pgas::Runtime>(rt.topo(), rt.cost_model());
      group.run([&run_shard, &shard_rt, s] { run_shard(s, *shard_rt); });
    }
    group.wait();
  } else {
    for (int s = 0; s < nshards; ++s) run_shard(s, rt);
  }

  // ---- aggregate stats + report -------------------------------------------
  for (const core::BatchResult& b : res.per_shard) {
    res.report.append(b.report);
    res.stats += b.stats;
    res.lane_stats += b.lane_stats;
  }
  // Read-scoped counters must count each read once, not once per shard.
  res.stats.reads_processed =
      res.per_shard.empty() ? 0 : res.per_shard.front().stats.reads_processed;
  res.stats.reads_aligned = 0;

  // ---- 3+4: reconcile per (rank, read) and emit ---------------------------
  // Each rank's read range is reconciled on its own, with its own cursors
  // and merge scratch, and emits only as that rank — so the ranges run as
  // parallel tasks on the shards' executor (inline without one), and the
  // sink sees each rank's records in the serial order.
  std::vector<ReconcileScratch::Range>& ranges = scratch_->ranges;
  ranges.resize(static_cast<std::size_t>(nranks));
  const std::size_t n = reads.size();
  auto reconcile = [&](int r) {
    const auto rr = static_cast<std::size_t>(r);
    ReconcileScratch::Range& range = ranges[rr];
    range.cursor.assign(static_cast<std::size_t>(nshards), 0);
    range.reads_aligned = 0;
    const std::size_t lo = n * rr / static_cast<std::size_t>(nranks);
    const std::size_t hi = n * (rr + 1) / static_cast<std::size_t>(nranks);
    for (std::size_t i = lo; i < hi; ++i) {
      const seq::SeqRecord& read = reads[i];
      range.merged.clear();
      for (int s = 0; s < nshards; ++s) {
        auto& entries = collected[static_cast<std::size_t>(s)].per_rank()[rr];
        auto& c = range.cursor[static_cast<std::size_t>(s)];
        while (c < entries.size() && entries[c].read == &read)
          range.merged.push_back(std::move(entries[c++].rec));
      }
      if (!range.merged.empty()) ++range.reads_aligned;
      // One shard has nothing to merge: its emission order (grouped per
      // rank, per read) is already the stream — skip the per-read reorder.
      if (nshards > 1)
        std::sort(range.merged.begin(), range.merged.end(), better_hit);
      for (core::AlignmentRecord& rec : range.merged)
        sink.emit(r, read, std::move(rec));
    }
  };
  {
    const obs::Span span("shard.reconcile", "shard");
    if (pool) {
      exec::TaskGroup group(*pool);
      for (int r = 0; r < nranks; ++r)
        group.run([&reconcile, r] { reconcile(r); });
      group.wait();
    } else {
      for (int r = 0; r < nranks; ++r) reconcile(r);
    }
  }
  for (const ReconcileScratch::Range& range : ranges)
    res.stats.reads_aligned += range.reads_aligned;
  {
    const obs::Span span("shard.sink_flush", "shard");
    sink.batch_end();
  }
  ++batches_done_;
  res.wall_s = seconds_since(wall0);

  // ---- bridge the load-balance picture into the metrics registry ----------
  auto& reg = obs::MetricsRegistry::global();
  for (int s = 0; s < nshards; ++s)
    reg.gauge("mera_shard_wall_seconds", {{"shard", std::to_string(s)}},
              "Measured wall seconds of the shard's last batch")
        .set(res.shard_wall_s[static_cast<std::size_t>(s)]);
  reg.gauge("mera_shard_imbalance_measured", {},
            "max/mean of measured per-shard batch walls (1.0 = balanced)")
      .set(res.imbalance_measured());
  reg.gauge("mera_shard_imbalance_predicted", {},
            "max/mean of planned shard weights (ShardPlan::imbalance)")
      .set(ref_.plan().imbalance());
  reg.gauge("mera_shard_parallelism", {},
            "Shards aligned concurrently in the last batch (resolved J)")
      .set(static_cast<double>(J));
  return res;
}

}  // namespace mera::shard
