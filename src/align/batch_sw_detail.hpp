// Internal plumbing for the inter-candidate batch SW engine: the argument
// blocks the per-ISA translation units fill in, and the function table the
// dispatcher selects at runtime. Nothing here is part of the public API —
// include batch_sw.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mera::align::detail {

/// Target columns are padded with 0xFF past a lane's target length; query
/// rows are padded with 0xFE past its query length. DNA codes are 0–3, so
/// neither pad ever equals a residue code — and the two pads never equal
/// each other, so a padded row meeting a padded column still scores a
/// mismatch. Padding is inert when mismatch <= 0 and both gap penalties are
/// >= 0; BatchSwScorer verifies that precondition and aligns per pair any
/// group that has padded cells under a scheme that violates it.
///
/// Why it is inert: the trace pass (BatchTrace16Args) sweeps rows outer /
/// columns inner and keeps a strict-`>` running best, so a lane's pad cells
/// are interleaved with its real ones: row i's pad columns are visited
/// before row i+1's real cells. A real cell (i <= qlen, j <= len) reads only
/// (i-1, j-1), (i, j-1) and (i-1, j) — real cells — so real values are
/// exactly the per-pair DP's. A pad cell's H is the max of 0, a diagonal
/// predecessor plus mismatch (<= 0) and gap terms that subtract gap
/// penalties (>= 0) from cells of the same row or column; all of those
/// predecessors were visited earlier in row-major order. By induction every
/// pad cell is <= the largest real H visited before it, i.e. <= the lane's
/// running best at that moment, so it never STRICTLY exceeds it and the
/// best cell (value, row, column) is the first row-major maximum — exactly
/// what smith_waterman picks.
inline constexpr std::uint8_t kTargetPadCode = 0xFF;
inline constexpr std::uint8_t kQueryPadCode = 0xFE;

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
  /// Interleaved queries / targets as int16 codes: qbuf[i * lanes + l] is
  /// lane l's query code at row i, tbuf[j * lanes + l] its target code at
  /// column j, padded with kQueryPadCode rows / kTargetPadCode columns.
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
  int lanes16 = 0;  ///< candidates per 16-bit group (8 / 16 / 32)
  void (*trace16)(const BatchTrace16Args&) = nullptr;
};

/// Compiled-in kernels, or nullptr when the toolchain/build excludes the
/// tier (non-x86, missing -mavx2/-mavx512bw support, MERA_FORCE_SCALAR_SW).
const BatchKernel* batch_kernel_sse2() noexcept;
const BatchKernel* batch_kernel_avx2() noexcept;
const BatchKernel* batch_kernel_avx512() noexcept;

}  // namespace mera::align::detail
