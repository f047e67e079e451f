// Reference Smith-Waterman local alignment (affine gaps) with traceback.
//
// This is the ground-truth kernel: exact full-DP, O(m*n) time and space,
// with DNA match/mismatch scoring (Scoring::substitution). It runs only on
// small windows around a located seed: as the batch engine's scalar tier
// (the `--sw-isa scalar` reference run) and per-pair fallback, and as the
// pMap-style baseline's extension. The batch engine's traced SIMD sweep (batch_sw.hpp) shares its
// traceback walk (sw_engine.hpp) and is property-tested against it field for
// field.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "align/cigar.hpp"
#include "align/scoring.hpp"

namespace mera::align {

struct LocalAlignment {
  int score = 0;
  // Half-open alignment spans; coordinates are within the inputs as given.
  std::size_t q_begin = 0, q_end = 0;
  std::size_t t_begin = 0, t_end = 0;
  Cigar cigar;  ///< includes leading/trailing soft clips covering the query
  int mismatches = 0;
  int gap_columns = 0;  ///< total I+D columns

  [[nodiscard]] bool empty() const noexcept { return q_begin == q_end; }
  friend bool operator==(const LocalAlignment&,
                         const LocalAlignment&) = default;
};

/// Full-DP local alignment of query vs target (2-bit code spans).
[[nodiscard]] LocalAlignment smith_waterman(std::span<const std::uint8_t> query,
                                            std::span<const std::uint8_t> target,
                                            const Scoring& sc = {});

/// ASCII convenience overload.
[[nodiscard]] LocalAlignment smith_waterman(std::string_view query,
                                            std::string_view target,
                                            const Scoring& sc = {});

/// Score-only scalar reference (used to validate smith_waterman itself).
[[nodiscard]] int sw_score_reference(std::span<const std::uint8_t> query,
                                     std::span<const std::uint8_t> target,
                                     const Scoring& sc = {});

}  // namespace mera::align
