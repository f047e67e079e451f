// Pipeline counters, aggregated across ranks at the end of a run.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace mera::core {

struct PipelineStats {
  // Work items.
  std::uint64_t reads_processed = 0;
  std::uint64_t reads_aligned = 0;       ///< reads with >= 1 reported alignment
  std::uint64_t alignments_reported = 0;
  std::uint64_t seeds_indexed = 0;

  // Aligning-phase operations.
  /// Seed-index lookups: one per read position, serving both strands. (A
  /// position whose forward seed the node cache served probes once more,
  /// for its reverse complement, if the reverse pass runs; that probe is
  /// not counted here, so the count does not depend on cache contents.)
  std::uint64_t seed_lookups = 0;
  std::uint64_t seed_cache_hits = 0;     ///< lookups the node cache served
  std::uint64_t target_fetches = 0;      ///< target sequences pulled
  std::uint64_t target_cache_hits = 0;
  std::uint64_t sw_calls = 0;            ///< Smith-Waterman extensions run
  std::uint64_t sw_cells = 0;            ///< DP cells scored (window x query)
  std::uint64_t memcmp_calls = 0;        ///< exact-match fast-path comparisons
  std::uint64_t exact_match_reads = 0;   ///< reads resolved by the Lemma-1 path
  std::uint64_t hits_truncated = 0;      ///< lookups clipped by max_hits_per_seed

  // Modeled communication seconds, split by purpose (max over ranks is what
  // Figure 9 plots; we also keep the rank-summed volume for sanity checks).
  double comm_lookup_s = 0.0;
  double comm_fetch_s = 0.0;

  PipelineStats& operator+=(const PipelineStats& o) noexcept {
    reads_processed += o.reads_processed;
    reads_aligned += o.reads_aligned;
    alignments_reported += o.alignments_reported;
    seeds_indexed += o.seeds_indexed;
    seed_lookups += o.seed_lookups;
    seed_cache_hits += o.seed_cache_hits;
    target_fetches += o.target_fetches;
    target_cache_hits += o.target_cache_hits;
    sw_calls += o.sw_calls;
    sw_cells += o.sw_cells;
    memcmp_calls += o.memcmp_calls;
    exact_match_reads += o.exact_match_reads;
    hits_truncated += o.hits_truncated;
    comm_lookup_s += o.comm_lookup_s;
    comm_fetch_s += o.comm_fetch_s;
    return *this;
  }

  [[nodiscard]] double aligned_fraction() const noexcept {
    return reads_processed == 0
               ? 0.0
               : static_cast<double>(reads_aligned) /
                     static_cast<double>(reads_processed);
  }
  [[nodiscard]] double exact_fraction() const noexcept {
    return reads_aligned == 0
               ? 0.0
               : static_cast<double>(exact_match_reads) /
                     static_cast<double>(reads_aligned);
  }

  void print(std::ostream& os) const;
};

}  // namespace mera::core
