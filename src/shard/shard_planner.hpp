// Partitioning a target collection into index shards.
//
// The paper's conclusion scenario is screening reads against a reference
// collection too large for one machine's distributed index ("GenBank-scale").
// The composition unit is a per-runtime IndexedReference shard; this planner
// decides which targets go into which shard so that no shard's index
// dominates build or lookup time.
//
// A target weighs the number of seeds it feeds into the distributed index
// (L - k + 1 for length L; the fragmentation of Section IV-A keeps fragment
// seed sets disjoint, so this is exact), which is what index.build inserts
// and what lookups are served from — the Section IV-B quantity that
// actually scales a shard's cost. Assignment is greedy LPT (heaviest target
// to the lightest shard), which is deterministic and within 4/3 of the
// optimal makespan.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/fasta.hpp"

namespace mera::shard {

struct ShardPlanOptions {
  int shards = 1;  ///< clamped to [1, num_targets]
  int k = 51;      ///< seed length the target weights count seeds of
};

/// A partition of the input target indices into shards. Targets are referred
/// to by their position in the planned collection — the same value that
/// becomes the target's *global* id when the collection is built as a single
/// IndexedReference, which is what keeps sharded and monolithic output
/// comparable record for record.
struct ShardPlan {
  struct Shard {
    std::vector<std::uint32_t> targets;  ///< global target ids, ascending
    std::uint64_t weight = 0;            ///< summed target weights
  };
  std::vector<Shard> shards;

  [[nodiscard]] int num_shards() const noexcept {
    return static_cast<int>(shards.size());
  }
  [[nodiscard]] std::size_t num_targets() const noexcept;
  [[nodiscard]] std::uint64_t total_weight() const noexcept;
  [[nodiscard]] std::uint64_t max_weight() const noexcept;
  /// max shard weight / mean shard weight; 1.0 = perfectly balanced.
  [[nodiscard]] double imbalance() const noexcept;
};

/// Weight of one target: its seeds of length k, L - k + 1, and at least 1
/// (so empty or shorter-than-k targets still occupy a slot somewhere).
[[nodiscard]] std::uint64_t target_weight(const seq::SeqRecord& target, int k);

/// Deterministically partition `targets` into opt.shards balanced shards.
[[nodiscard]] ShardPlan plan_shards(const std::vector<seq::SeqRecord>& targets,
                                    const ShardPlanOptions& opt);

/// The trivial plan for pre-sharded input (one FASTA per shard): shard i gets
/// the contiguous global-id block [offsets[i], offsets[i+1]), with
/// shard_weights[i] as its recorded weight (so imbalance() reflects the
/// actual base counts of the given files, not a placeholder). An empty
/// shard_weights falls back to the target counts.
[[nodiscard]] ShardPlan contiguous_plan(
    const std::vector<std::uint32_t>& shard_sizes,
    const std::vector<std::uint64_t>& shard_weights = {});

}  // namespace mera::shard
