#include "align/pooled_queue.hpp"

#include <utility>

namespace mera::align {

PooledExtensionQueue::PooledExtensionQueue(const PooledQueueConfig& cfg,
                                           AlignFn on_align)
    : cfg_(cfg),
      isa_(resolve_isa(cfg.isa)),
      on_align_(std::move(on_align)),
      scratch_(cfg.scratch != nullptr ? cfg.scratch : &own_scratch_) {
  // One full trace lane group per flush. The scalar tier aligns one
  // candidate at a time whatever we buffer; 16 just amortizes the per-flush
  // bookkeeping.
  const std::size_t lanes = isa_lanes16(isa_);
  flush_lanes_ = lanes > 1 ? lanes : 16;
}

PooledExtensionQueue::Bucket& PooledExtensionQueue::bucket_for(
    std::size_t cls) {
  auto& slot = buckets_[cls];
  if (!slot) slot = std::make_unique<Bucket>(cfg_.scoring, isa_);
  return *slot;
}

std::size_t PooledExtensionQueue::add_query(
    std::span<const std::uint8_t> query_codes) {
  const std::size_t cls = query_codes.size() / kLengthClassWidth;
  Bucket& b = bucket_for(cls);
  queries_.push_back({cls, b.scorer.add_query(query_codes)});
  return queries_.size() - 1;
}

void PooledExtensionQueue::enqueue(std::size_t qid,
                                   std::span<const std::uint8_t> window_codes,
                                   std::uint64_t tag) {
  const QueryRef& ref = queries_.at(qid);
  Bucket& b = *buckets_.at(ref.cls);
  b.scorer.add(ref.local, window_codes);
  b.tags.push_back(tag);
  ++pending_;
  if (b.tags.size() >= flush_lanes_) flush_bucket(b);
}

void PooledExtensionQueue::flush_bucket(Bucket& b) {
  if (b.tags.empty()) return;
  const auto results = b.scorer.flush(*scratch_);
  pending_ -= b.tags.size();
  // Swap the tag list out first: a callback may re-enter enqueue() on this
  // same bucket (it won't in the aligner, but the queue shouldn't care).
  std::vector<std::uint64_t> tags;
  tags.swap(b.tags);
  for (std::size_t i = 0; i < tags.size(); ++i) on_align_(tags[i], results[i]);
}

void PooledExtensionQueue::drain() {
  for (auto& [cls, bucket] : buckets_) flush_bucket(*bucket);
}

LaneStats PooledExtensionQueue::lane_stats() const {
  LaneStats total;
  for (const auto& [cls, bucket] : buckets_) total += bucket->scorer.lane_stats();
  return total;
}

}  // namespace mera::align
