// Internal: the one load→align stream loop behind the plain and sharded
// align_batch_files() entry points.
//
// Both sessions walk a file stream the same way — prefetched loads,
// per-batch observer callback, wall/load/stall accounting, report+stats
// aggregation — and differ only in the per-batch result type. Keeping the
// loop in one template means a fix to the accounting or the error path lands
// in both sessions at once.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/align_session.hpp"  // FileStreamOptions
#include "core/batch_prefetcher.hpp"
#include "exec/thread_pool.hpp"
#include "obs/clock.hpp"

namespace mera::core::detail {

/// Runs the stream: `align_one(records&&)` once per path in file order,
/// `on_batch(index, batch_result)` after each batch completes (so callers
/// can report progress while later batches are still loading/aligning).
/// StreamResult must expose batches/report/stats/wall_s/load_wall_s/stall_s
/// (core::FileStreamResult and shard::ShardedFileStreamResult do).
template <typename StreamResult, typename AlignFn, typename OnBatch>
StreamResult stream_file_batches(const std::vector<std::string>& paths,
                                 const FileStreamOptions& opt,
                                 AlignFn&& align_one, OnBatch&& on_batch) {
  const auto wall0 = obs::wall_now();
  StreamResult out;
  out.batches.reserve(paths.size());
  std::optional<exec::ThreadPool> own_pool;
  exec::ThreadPool* pool = opt.pool;
  if (!pool) pool = &own_pool.emplace(1);
  BatchPrefetcher prefetcher(*pool, paths);
  while (auto batch = prefetcher.next()) {
    out.load_wall_s += batch->load_wall_s;
    out.stall_s += batch->stall_s;
    out.batches.push_back(align_one(std::move(batch->records)));
    on_batch(out.batches.size() - 1, out.batches.back());
  }
  for (const auto& batch : out.batches) {
    out.report.append(batch.report);
    out.stats += batch.stats;
  }
  out.wall_s = seconds_since(wall0);
  return out;
}

}  // namespace mera::core::detail
