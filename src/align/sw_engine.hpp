// Shared pieces of the affine-gap local-alignment DP: the provenance bit
// layout, the traceback walk and the scalar fill's scratch buffers.
//
// The traceback walk is a template over a provenance accessor, so the scalar
// fill (smith_waterman.cpp) and the batch engine's SIMD trace pass (one
// provenance byte per lane per cell, batch_sw_kernel.hpp) share one CIGAR /
// mismatch / gap-column accounting.
#pragma once

#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "align/cigar.hpp"

namespace mera::align {

namespace detail {

// Provenance bits per DP cell for affine traceback.
// bits 0-1: H source (0 = local-zero stop, 1 = diagonal, 2 = E, 3 = F)
// bit 2: E extended an existing target-gap run; bit 3: same for F.
inline constexpr std::uint8_t kHDiag = 1, kHFromE = 2, kHFromF = 3;
inline constexpr std::uint8_t kEExt = 4, kFExt = 8;
inline constexpr int kNegInf = INT_MIN / 4;

/// Walk the affine traceback back from the best cell (best_i, best_j),
/// 1-based, and fill `out`, a LocalAlignment (a template parameter so the
/// per-ISA sweep TUs that include this header need not see its definition).
/// prov(i, j) returns the provenance byte of cell (i, j) for i, j >= 1; the
/// walk only ever reads cells up-left of the best one. A zero score yields
/// the all-soft-clip alignment.
template <typename Out, typename ProvFn>
void sw_traceback(std::span<const std::uint8_t> query,
                  std::span<const std::uint8_t> target, int best,
                  std::size_t best_i, std::size_t best_j, ProvFn&& prov,
                  Out& out) {
  const std::size_t m = query.size();
  out.score = best;
  if (best == 0) {
    out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(m));
    return;
  }

  Cigar rev;
  std::size_t i = best_i, j = best_j;
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    const std::uint8_t p = prov(i, j);
    if (state == State::kH) {
      const std::uint8_t hsrc = p & 3u;
      if (hsrc == 0) break;
      if (hsrc == kHDiag) {
        rev.push(CigarOp::kMatch, 1);
        if (query[i - 1] != target[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (hsrc == kHFromE) {
        state = State::kE;
      } else {
        state = State::kF;
      }
    } else if (state == State::kE) {
      rev.push(CigarOp::kDelete, 1);
      ++out.gap_columns;
      const bool ext = (p & kEExt) != 0;
      --j;
      if (!ext) state = State::kH;
    } else {
      rev.push(CigarOp::kInsert, 1);
      ++out.gap_columns;
      const bool ext = (p & kFExt) != 0;
      --i;
      if (!ext) state = State::kH;
    }
  }

  out.q_begin = i;
  out.q_end = best_i;
  out.t_begin = j;
  out.t_end = best_j;
  out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(i));
  rev.reverse();
  for (const auto& e : rev.elems()) out.cigar.push(e.op, e.len);
  out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(m - best_i));
}

/// Per-thread fill buffers, grown on demand and never shrunk: one H row, one
/// F row and the m x n provenance bytes (every cell the walk reads is
/// written first, so nothing needs zeroing between calls).
struct SwScratch {
  std::vector<int> h, f;
  std::vector<std::uint8_t> prov;
};

}  // namespace detail
}  // namespace mera::align
