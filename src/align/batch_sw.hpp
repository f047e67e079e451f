// Inter-candidate SIMD batch Smith-Waterman with runtime ISA dispatch.
//
// The engine vectorizes ACROSS candidates: candidate windows are packed
// one-per-lane into SSE2 / AVX2 / AVX-512 16-bit vectors and aligned in a
// single traced DP sweep (the way HMMER tiers its dp_vector kernels). The
// sweep stores one provenance byte per lane per cell; a per-lane traceback
// walk shared with smith_waterman then turns a lane's bytes into its whole
// alignment.
//
// The scorer is multi-query: each lane carries its own query, so candidates
// from many reads share one sweep (pooled_queue.hpp). Register queries with
// add_query() — duplicate query bytes dedup to one id — then enqueue pairs
// with add(qid, target). The single-query constructor and add(target) remain
// as a convenience over query id 0.
//
// Contract: every candidate's alignment (score, spans, CIGAR, mismatches,
// gap columns) equals smith_waterman's field for field, on every dispatch
// tier and through every per-pair fallback — property-tested by
// tests/test_batch_sw.cpp and tests/test_pooled_sw.cpp across all tiers the
// host supports.
//
// Dispatch: the widest ISA the CPU supports is probed once per scorer
// (cpuid via __builtin_cpu_supports); ExtensionConfig::isa (--sw-isa on the
// CLI) pins a specific tier. The scalar tier aligns each candidate with
// smith_waterman, so `--sw-isa scalar` is the reference run every other tier
// must reproduce. Under MERA_FORCE_SCALAR_SW builds only the scalar tier
// exists.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "align/scoring.hpp"
#include "align/smith_waterman.hpp"

namespace mera::align {

/// Dispatch tiers, narrowest to widest. kAuto resolves to the widest tier
/// both compiled in and supported by the running CPU.
enum class SwIsa : std::uint8_t { kAuto = 0, kScalar, kSse2, kAvx2, kAvx512 };

/// "auto" / "scalar" / "sse2" / "avx2" / "avx512".
[[nodiscard]] const char* isa_name(SwIsa isa) noexcept;
/// Inverse of isa_name; nullopt for anything else.
[[nodiscard]] std::optional<SwIsa> parse_isa(std::string_view name) noexcept;
/// Tier is compiled into this binary AND supported by the running CPU.
/// kScalar and kAuto are always supported.
[[nodiscard]] bool isa_supported(SwIsa isa) noexcept;
/// Widest supported tier on this host (kScalar when no SIMD tier is).
[[nodiscard]] SwIsa detect_isa() noexcept;
/// Resolve `isa` to a concrete tier: kAuto is detect_isa(); an explicit tier
/// is validated and returned. Throws std::invalid_argument on a tier this
/// CPU/build does not support — forcing a tier is for testing, and a forced
/// tier that silently degrades would test nothing.
[[nodiscard]] SwIsa resolve_isa(SwIsa isa);
/// 16-bit lane width — the traced sweep's — of a concrete tier (8 / 16 /
/// 32); 1 for kScalar. Resolves kAuto first.
[[nodiscard]] std::size_t isa_lanes16(SwIsa isa);
/// Human-readable per-tier support report for this binary on this CPU —
/// what `--sw-isa help` prints.
[[nodiscard]] std::string isa_support_summary();

/// Lane-occupancy accounting for the batch engine's SIMD sweeps. Each
/// lane-group sweep of width W carrying F live candidates records F filled
/// and W-F wasted lanes plus one octile-histogram sample of F/W. Per-pair
/// fallbacks (scalar tier, exotic scoring) record nothing — occupancy
/// describes vector sweeps only. These feed the mera_sw_lane_* obs series;
/// they live outside PipelineStats because every tier produces identical
/// PipelineStats by contract while lane shapes depend on flush timing and
/// ISA tier.
struct LaneStats {
  static constexpr std::size_t kOccBuckets = 8;
  std::uint64_t flushes = 0;       ///< flush() calls aligning >= 1 candidate
  std::uint64_t groups = 0;        ///< traced 16-bit lane-group sweeps
  std::uint64_t lanes_filled = 0;  ///< lanes carrying a live candidate
  std::uint64_t lanes_wasted = 0;  ///< idle lanes in those sweeps
  /// Octile histogram of per-group occupancy: bucket i counts groups with
  /// filled/width in (i/8, (i+1)/8].
  std::array<std::uint64_t, kOccBuckets> occupancy{};

  void record_group(std::size_t filled, std::size_t width) noexcept;
  /// lanes_filled / (lanes_filled + lanes_wasted); 0 when no sweeps ran.
  [[nodiscard]] double mean_occupancy() const noexcept;
  LaneStats& operator+=(const LaneStats& o) noexcept;
};

/// Buffers of the traced sweep: interleaved int16 queries/targets, the H and
/// F rows and the provenance bytes (rows x columns x lanes). Grown on demand
/// and never shrunk, so a caller that keeps one alive across flushes — the
/// session keeps one per rank for its whole lifetime — allocates them once.
/// Provenance is capped at kTraceProvBudget bytes per lane group; larger
/// groups (long reads) align per pair instead.
struct TraceScratch {
  static constexpr std::size_t kTraceProvBudget = std::size_t{8} << 20;
  std::vector<std::int16_t> qbuf, tbuf, h, f;
  std::vector<std::uint8_t> prov;
};

/// Aligns query/target candidate pairs in SIMD lane groups.
///
/// Single-query (per-read) form:
///   BatchSwScorer scorer(query_codes, scoring);     // per oriented query
///   for (cand : candidates) scorer.add(cand.window_codes);
///   const auto results = scorer.flush();            // insertion order
///
/// Multi-query (cross-read pooling) form:
///   BatchSwScorer scorer(scoring);
///   const auto qid = scorer.add_query(query_codes); // dedups by bytes
///   scorer.add(qid, cand.window_codes);
///   const auto results = scorer.flush(scratch);     // insertion order
///
/// add/flush can be repeated; registered queries persist across flushes,
/// only the pending-candidate queue is cleared.
class BatchSwScorer {
 public:
  explicit BatchSwScorer(std::span<const std::uint8_t> query_codes,
                         const Scoring& sc = {}, SwIsa isa = SwIsa::kAuto);
  /// Multi-query mode: no initial query; register them with add_query().
  explicit BatchSwScorer(const Scoring& sc = {}, SwIsa isa = SwIsa::kAuto);

  /// Register a query (codes are copied). Identical query bytes return the
  /// same id.
  std::size_t add_query(std::span<const std::uint8_t> query_codes);

  /// Enqueue one candidate target against query `qid` (codes are copied);
  /// returns its index in the batch, which is its index into flush()'s
  /// result vector.
  std::size_t add(std::size_t qid, std::span<const std::uint8_t> target_codes);
  /// Single-query convenience: the candidate aligns against query id 0.
  std::size_t add(std::span<const std::uint8_t> target_codes);

  /// Align every pending candidate and clear the queue: one 16-bit traced
  /// sweep per lane group, then a per-lane traceback walk. Results are in
  /// add() order and equal smith_waterman(query, target, scoring) field for
  /// field. Candidates align per pair through smith_waterman instead on the
  /// scalar tier, in pad-unsafe groups of unequal lengths, when a group's
  /// values could overflow int16, or when its provenance would exceed
  /// TraceScratch::kTraceProvBudget. `scratch` holds the sweep's buffers.
  [[nodiscard]] std::vector<LocalAlignment> flush(TraceScratch& scratch);
  /// One-shot form of flush(TraceScratch&) over buffers of its own.
  [[nodiscard]] std::vector<LocalAlignment> flush();

  [[nodiscard]] std::size_t pending() const noexcept { return lens_.size(); }
  [[nodiscard]] std::size_t num_queries() const noexcept {
    return queries_.size();
  }
  [[nodiscard]] const Scoring& scoring() const noexcept { return sc_; }
  /// The concrete tier this scorer dispatches to (never kAuto).
  [[nodiscard]] SwIsa isa() const noexcept { return isa_; }
  /// Cumulative lane occupancy over every flush of this scorer.
  [[nodiscard]] const LaneStats& lane_stats() const noexcept {
    return lane_stats_;
  }

 private:
  Scoring sc_;
  SwIsa isa_;
  /// Padded query rows are provably inert only for mismatch <= 0 and
  /// non-negative gap penalties (see batch_sw_detail.hpp); other schemes
  /// align mixed-length groups per pair.
  bool pad_safe_ = true;
  // Registered queries: stable byte buffers + bytes->id dedup.
  std::vector<std::vector<std::uint8_t>> queries_;
  std::unordered_map<std::string, std::size_t> query_ids_;
  // Pending candidates: concatenated codes + per-candidate extents + query.
  std::vector<std::uint8_t> pool_;
  std::vector<std::size_t> offs_, lens_, qids_;
  LaneStats lane_stats_;
};

}  // namespace mera::align
