#include "serve/backend.hpp"

#include <utility>

#include "cache/cache_snapshot.hpp"
#include "core/sam_writer.hpp"

namespace mera::serve {

Backend::Backend(core::IndexedReference ref, core::SessionConfig cfg) {
  single_.emplace(std::move(ref), cfg);
}

Backend::Backend(shard::ShardedReference ref, shard::ShardedSessionConfig cfg) {
  sharded_.emplace(std::move(ref), cfg);
}

BatchSummary Backend::align_batch(pgas::Runtime& rt,
                                  std::vector<seq::SeqRecord>&& reads,
                                  core::AlignmentSink& sink) {
  BatchSummary out;
  if (single_) {
    core::BatchResult res = single_->align_batch(rt, std::move(reads), sink);
    out.stats = res.stats;
    out.report = std::move(res.report);
    out.seed_cache = res.seed_cache;
    out.target_cache = res.target_cache;
    out.lane_stats = res.lane_stats;
    return out;
  }
  shard::ShardedBatchResult res =
      sharded_->align_batch(rt, std::move(reads), sink);
  out.stats = res.stats;
  out.report = std::move(res.report);
  for (const core::BatchResult& b : res.per_shard) {
    out.seed_cache += b.seed_cache;
    out.target_cache += b.target_cache;
  }
  out.lane_stats = res.lane_stats;
  out.wall_s = res.wall_s;
  return out;
}

std::vector<core::SamTarget> Backend::sam_targets() const {
  if (single_) return core::sam_targets(single_->reference().targets());
  return sharded_->reference().sam_targets();
}

const core::SessionConfig& Backend::config() const {
  return single_ ? single_->config() : sharded_->config();
}

int Backend::num_shards() const noexcept {
  return single_ ? 1 : sharded_->num_shards();
}

void Backend::save_caches(const pgas::Runtime& rt,
                          const std::string& dir) const {
  if (single_)
    single_->save_caches(rt, dir + "/" + cache::kSessionSnapshotFile);
  else
    sharded_->save_caches(rt, dir);
}

void Backend::load_caches(const pgas::Runtime& rt, const std::string& dir) {
  if (single_)
    single_->load_caches(rt, dir + "/" + cache::kSessionSnapshotFile);
  else
    sharded_->load_caches(rt, dir);
}

}  // namespace mera::serve
