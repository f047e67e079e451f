// Cross-read candidate pooling for the inter-candidate batch SW engine.
//
// BatchSwScorer fills lanes with whatever one flush holds — flushing per read
// per strand, a read with 3 candidates would waste 29 of 32 AVX-512 trace
// lanes. This queue decouples flush granularity from read boundaries:
// candidates from MANY reads accumulate in buckets keyed by query-length
// class (bounding the row-padding a mixed group pays), and a bucket flushes
// through its multi-query BatchSwScorer's traced sweep only once it can fill
// the resolved tier's trace lane width. mmseqs2's prescreen keeps its SIMD
// matcher saturated the same way.
//
// Alignment is deferred, so callers attach an opaque provenance tag to every
// candidate and receive (tag, LocalAlignment) callbacks as flushes happen —
// in bucket-insertion order within a flush, but in no particular order
// ACROSS buckets. Emission ordering is the caller's job (AlignSession keeps
// a slot/cursor log that replays results in candidate-discovery order; see
// align_session.cpp). drain() force-flushes every bucket — call it at batch
// end, after which every enqueued tag has been called back exactly once.
//
// Results equal smith_waterman(query, window) field for field on any tier
// (the BatchSwScorer::flush contract); pooling changes WHEN a candidate is
// aligned, never WHAT its alignment is.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "align/batch_sw.hpp"
#include "align/scoring.hpp"

namespace mera::align {

struct PooledQueueConfig {
  Scoring scoring{};
  SwIsa isa = SwIsa::kAuto;
  /// Sweep buffers shared by every bucket (flushes are sequential). Not
  /// owned; must outlive the queue. Null = the queue keeps its own.
  TraceScratch* scratch = nullptr;
};

/// Batch-scoped deferred-extension queue: enqueue candidate windows from any
/// number of reads, get alignments back by tag once a length-class bucket
/// fills a SIMD lane group (or at drain()).
class PooledExtensionQueue {
 public:
  using AlignFn =
      std::function<void(std::uint64_t tag, const LocalAlignment& aln)>;

  /// Queries whose lengths fall in the same class of this width share a
  /// bucket (class id = qlen / width). Wider classes pool more aggressively
  /// but pay more row padding per sweep; 32 keeps worst-case padding under
  /// one cache line of rows.
  static constexpr std::size_t kLengthClassWidth = 32;

  PooledExtensionQueue(const PooledQueueConfig& cfg, AlignFn on_align);
  // Pinned in place: scratch_ may point at own_scratch_.
  PooledExtensionQueue(const PooledExtensionQueue&) = delete;
  PooledExtensionQueue& operator=(const PooledExtensionQueue&) = delete;

  /// Register a query (codes copied; duplicates share one id inside the
  /// bucket scorer). Ids are process-local to this queue and stable for its
  /// lifetime.
  std::size_t add_query(std::span<const std::uint8_t> query_codes);

  /// Enqueue one candidate window against query `qid`. May trigger a bucket
  /// flush (and therefore on_align callbacks) before returning.
  void enqueue(std::size_t qid, std::span<const std::uint8_t> window_codes,
               std::uint64_t tag);

  /// Force-flush every bucket (ascending length-class order). After drain()
  /// every enqueued tag has been aligned exactly once.
  void drain();

  /// Candidates enqueued but not yet aligned.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  /// Concrete dispatch tier every bucket scorer uses (never kAuto).
  [[nodiscard]] SwIsa isa() const noexcept { return isa_; }
  /// Candidates a bucket accumulates before it flushes through the traced
  /// sweep: the tier's 16-bit lane width, so every non-drain flush fills a
  /// full lane group (16 on the scalar tier).
  [[nodiscard]] std::size_t flush_lanes() const noexcept {
    return flush_lanes_;
  }
  /// Lane occupancy summed over every bucket's scorer.
  [[nodiscard]] LaneStats lane_stats() const;

 private:
  struct Bucket {
    BatchSwScorer scorer;
    std::vector<std::uint64_t> tags;  // parallel to the scorer's pending set
    Bucket(const Scoring& sc, SwIsa isa) : scorer(sc, isa) {}
  };
  struct QueryRef {
    std::size_t cls;    // length-class id = qlen / kLengthClassWidth
    std::size_t local;  // query id inside that bucket's scorer
  };

  Bucket& bucket_for(std::size_t cls);
  void flush_bucket(Bucket& b);

  PooledQueueConfig cfg_;
  SwIsa isa_;
  std::size_t flush_lanes_;
  AlignFn on_align_;
  TraceScratch own_scratch_;  ///< used when cfg.scratch is null
  TraceScratch* scratch_;
  // std::map: drain() walks buckets in ascending class order, keeping the
  // cross-bucket callback order deterministic for a given enqueue sequence.
  std::map<std::size_t, std::unique_ptr<Bucket>> buckets_;
  std::vector<QueryRef> queries_;
  std::size_t pending_ = 0;
};

}  // namespace mera::align
