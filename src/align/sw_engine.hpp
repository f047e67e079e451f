// Generic affine-gap local-alignment DP engine with traceback.
//
// Templated on the substitution function so the same verified kernel serves
// DNA match/mismatch scoring and protein substitution matrices (BLOSUM62) —
// the paper's conclusion notes the approach extends to protein alphabets
// with "minor changes to the underlying protocols".
//
// The traceback walk is a separate template over a provenance accessor, so
// the scalar fill below and the batch engine's SIMD trace pass (one
// provenance byte per lane per cell, batch_sw_kernel.hpp) share one CIGAR /
// mismatch / gap-column accounting.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "align/cigar.hpp"

namespace mera::align {

struct LocalAlignment;  // defined in smith_waterman.hpp

namespace detail {

// Provenance bits per DP cell for affine traceback.
// bits 0-1: H source (0 = local-zero stop, 1 = diagonal, 2 = E, 3 = F)
// bit 2: E extended an existing target-gap run; bit 3: same for F.
inline constexpr std::uint8_t kHDiag = 1, kHFromE = 2, kHFromF = 3;
inline constexpr std::uint8_t kEExt = 4, kFExt = 8;
inline constexpr int kNegInf = INT_MIN / 4;

/// Full-DP local alignment; SubstFn: int(code_q, code_t).
/// Result is written into the LocalAlignment-compatible output fields via
/// the Out struct to avoid a circular include.
struct SwOut {
  int score = 0;
  std::size_t q_begin = 0, q_end = 0, t_begin = 0, t_end = 0;
  Cigar cigar;
  int mismatches = 0;
  int gap_columns = 0;
};

/// Walk the affine traceback back from the best cell (best_i, best_j),
/// 1-based, and fill `out` (SwOut or LocalAlignment — same field names).
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

template <typename SubstFn>
SwOut sw_align(std::span<const std::uint8_t> query,
               std::span<const std::uint8_t> target, SubstFn&& sub,
               int gap_open, int gap_extend) {
  const std::size_t m = query.size(), n = target.size();
  SwOut out;
  if (m == 0 || n == 0) return out;

  const int go = gap_open + gap_extend;  // cost of a gap's first base
  const int ge = gap_extend;

  thread_local SwScratch scratch;
  scratch.h.assign(n + 1, 0);  // H(0, j) = 0: the local-alignment boundary
  scratch.f.assign(n + 1, kNegInf);
  if (scratch.prov.size() < m * n) scratch.prov.resize(m * n);
  int* const H = scratch.h.data();
  int* const F = scratch.f.data();
  std::uint8_t* const prov = scratch.prov.data();

  int best = 0;
  std::size_t best_i = 0, best_j = 0;

  // Row-major sweep. The cell comparisons are data-dependent coin flips, so
  // they are max and selects rather than branches. H[j] holds H(i-1, j)
  // until cell (i, j) overwrites it with H(i, j).
  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint8_t qc = query[i - 1];
    std::uint8_t* const prow = prov + (i - 1) * n;
    int hdiag = 0;  // H(i-1, j-1)
    int hleft = 0;  // H(i, j-1)
    int E = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      const int hup = H[j];
      const int e_open = hleft - go;
      const int e_ext = E - ge;
      const unsigned e_is_ext = e_ext >= e_open;
      E = std::max(e_open, e_ext);
      const int f_open = hup - go;
      const int f_ext = F[j] - ge;
      const unsigned f_is_ext = f_ext >= f_open;
      const int f = std::max(f_open, f_ext);
      F[j] = f;
      const int diag = hdiag + sub(qc, target[j - 1]);
      // H source: strict `>` in diag -> E -> F order (ties keep the earlier).
      const int h0 = std::max(diag, 0);
      const unsigned e_wins = E > h0;
      const int h1 = std::max(h0, E);
      const unsigned f_wins = f > h1;
      const int h = std::max(h1, f);
      unsigned src = f_wins ? kHFromF : e_wins ? kHFromE : diag > 0;
      prow[j - 1] = static_cast<std::uint8_t>(src | (e_is_ext << 2) |
                                              (f_is_ext << 3));
      H[j] = h;
      hdiag = hup;
      hleft = h;
      // First row-major best cell: strict `>` against the running best. A
      // real branch: it is taken about once per row, so it predicts well.
      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }
  }

  sw_traceback(
      query, target, best, best_i, best_j,
      [prov, n](std::size_t i, std::size_t j) {
        return prov[(i - 1) * n + (j - 1)];
      },
      out);
  return out;
}

}  // namespace detail
}  // namespace mera::align
