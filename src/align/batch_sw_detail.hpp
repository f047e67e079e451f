// Internal plumbing for the inter-candidate batch SW engine: the argument
// blocks the per-ISA translation units fill in, and the function table the
// dispatcher selects at runtime. Nothing here is part of the public API —
// include batch_sw.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mera::align::detail {

/// Target columns are padded with 0xFF past len[l]; query rows are padded
/// with 0xFE past qlen[l]. DNA codes are 0–3, so neither pad ever equals a
/// residue code — and the two pads never equal each other, so a padded row
/// meeting a padded column still scores a mismatch. With mismatch <= 0 and
/// both gap penalties >= 0 every cell in a padded row derives from real
/// cells through non-increasing operations, so a padded row can never
/// STRICTLY exceed the running best — and the strict `>` best-update means
/// score / t_end / saturation are untouched by row padding. BatchSwScorer
/// verifies that precondition and falls back to per-pair scoring for exotic
/// scoring schemes that violate it.
///
/// The trace pass (BatchTrace16Args) sweeps rows outer / columns inner and
/// keeps a strict-`>` running best, so a lane's pad cells are interleaved
/// with its real ones: row i's pad columns are visited before row i+1's real
/// cells. The same argument covers it. A real cell (i <= qlen, j <= len)
/// reads only (i-1, j-1), (i, j-1) and (i-1, j) — real cells — so real
/// values are exactly the per-pair DP's. A pad cell's H is the max of 0, a
/// diagonal predecessor plus mismatch (<= 0) and gap terms that subtract
/// gap penalties (>= 0) from cells of the same row or column; all of those
/// predecessors were visited earlier in row-major order. By induction every
/// pad cell is <= the largest real H visited before it, i.e. <= the lane's
/// running best at that moment, so it never STRICTLY exceeds it and the
/// best cell (value, row, column) is the first row-major maximum — exactly
/// what smith_waterman picks.
inline constexpr std::uint8_t kTargetPadCode = 0xFF;
inline constexpr std::uint8_t kQueryPadCode = 0xFE;

/// One 8-bit lane-group pass: scores `lanes8` candidates, one query/target
/// pair per lane, in saturating unsigned arithmetic (values biased by
/// `bias`, exactly like the striped kernel's 8-bit pass, so saturation —
/// and therefore used_16bit — is bit-identical per pair).
struct BatchPass8Args {
  /// Interleaved queries: qbuf[i * lanes + l] = code of lane l's query at
  /// row i, padded with kQueryPadCode past qlen[l].
  const std::uint8_t* qbuf = nullptr;
  const std::size_t* qlen = nullptr;  ///< per-lane query length
  std::size_t m = 0;                  ///< max(qlen), rows in qbuf
  /// Interleaved targets: tbuf[j * lanes + l] = code of candidate l at
  /// column j, padded with kTargetPadCode past len[l].
  const std::uint8_t* tbuf = nullptr;
  const std::size_t* len = nullptr;  ///< per-lane target length
  std::size_t nmax = 0;              ///< max(len), columns in tbuf
  int match_bias = 0;     ///< scoring.match + bias   (fits u8)
  int mismatch_bias = 0;  ///< scoring.mismatch + bias (>= 0 by construction)
  int bias = 0;           ///< max(0, -scoring.mismatch)
  int gap_open_total = 0;  ///< gap_open + gap_extend
  int gap_extend = 0;
  // Outputs, one per lane. Lanes with len[l] == 0 are left untouched.
  int* best = nullptr;           ///< best score (exact unless saturated)
  std::size_t* t_end = nullptr;  ///< smallest column achieving best
  std::uint8_t* saturated = nullptr;  ///< best >= 255 - bias: rerun in 16-bit
};

/// One 16-bit lane-group pass for candidates whose 8-bit lane saturated.
/// Signed arithmetic with an explicit zero floor, mirroring striped_i16.
struct BatchPass16Args {
  /// Interleaved queries as int16 codes, padded with kQueryPadCode past
  /// qlen[l].
  const std::int16_t* qbuf = nullptr;
  const std::size_t* qlen = nullptr;  ///< per-lane query length
  std::size_t m = 0;                  ///< max(qlen), rows in qbuf
  /// Interleaved targets as int16 codes, padded with kTargetPadCode past
  /// len[l].
  const std::int16_t* tbuf = nullptr;
  const std::size_t* len = nullptr;
  std::size_t nmax = 0;
  int match = 0;
  int mismatch = 0;
  int gap_open_total = 0;
  int gap_extend = 0;
  int* best = nullptr;
  std::size_t* t_end = nullptr;
  std::uint8_t* saturated = nullptr;  ///< best >= 32767: scalar rerun
};

/// Stand-in for the scalar engine's kNegInf in the trace pass: the E/F
/// boundary before any gap can open. Only ever compared against gap-open
/// terms >= -kTraceMaxGapOpen, which it loses to exactly like kNegInf does.
inline constexpr std::int16_t kTraceNegInf = -16000;
/// Largest gap_open + gap_extend the trace pass accepts; keeps every E/F
/// value (>= -2 * kTraceMaxGapOpen) clear of the sentinel and of int16 range.
inline constexpr int kTraceMaxGapOpen = 7000;

/// One 16-bit traced lane-group pass: the full affine DP of smith_waterman
/// for `lanes16` candidates at once, signed and unfloored (E/F start at
/// kTraceNegInf), with the scalar engine's comparisons — `>=` for the E/F
/// extend bits, strict `>` in diag -> E -> F order for the H source. It
/// stores one provenance byte per lane per cell (sw_engine.hpp's bit layout)
/// and the first row-major best cell per lane; the shared sw_traceback walk
/// turns a lane's bytes into its LocalAlignment. The caller guarantees every
/// value fits int16 (see trace16_fits in batch_sw.cpp).
struct BatchTrace16Args {
  /// Interleaved queries / targets as int16 codes, padded like the score
  /// passes' (kQueryPadCode rows, kTargetPadCode columns).
  const std::int16_t* qbuf = nullptr;
  std::size_t m = 0;  ///< rows in qbuf
  const std::int16_t* tbuf = nullptr;
  std::size_t nmax = 0;  ///< columns in tbuf
  int match = 0;
  int mismatch = 0;
  int gap_open_total = 0;
  int gap_extend = 0;
  /// Caller-owned scratch: H and F rows (nmax * lanes each) and the
  /// provenance bytes, prov[((i-1) * nmax + (j-1)) * lanes + l] for cell
  /// (i, j) of lane l (m * nmax * lanes).
  std::int16_t* h = nullptr;
  std::int16_t* f = nullptr;
  std::uint8_t* prov = nullptr;
  // Outputs, one per lane: best score and its 1-based cell (0, 0 when the
  // best is 0).
  int* best = nullptr;
  std::size_t* best_i = nullptr;
  std::size_t* best_j = nullptr;
};

/// Per-ISA function table. Each per-ISA TU exposes its table when the build
/// compiled that tier in, nullptr otherwise; the dispatcher in batch_sw.cpp
/// picks one per resolved SwIsa.
struct BatchKernel {
  int lanes8 = 0;   ///< candidates per 8-bit group (16 / 32 / 64)
  int lanes16 = 0;  ///< candidates per 16-bit group (8 / 16 / 32)
  void (*pass8)(const BatchPass8Args&) = nullptr;
  void (*pass16)(const BatchPass16Args&) = nullptr;
  void (*trace16)(const BatchTrace16Args&) = nullptr;
};

/// Compiled-in kernels, or nullptr when the toolchain/build excludes the
/// tier (non-x86, missing -mavx2/-mavx512bw support, MERA_FORCE_SCALAR_SW).
const BatchKernel* batch_kernel_sse2() noexcept;
const BatchKernel* batch_kernel_avx2() noexcept;
const BatchKernel* batch_kernel_avx512() noexcept;

}  // namespace mera::align::detail
