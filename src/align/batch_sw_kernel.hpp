// Traits-templated inter-candidate SW passes, instantiated once per ISA TU
// (batch_sw_sse2/avx2/avx512.cpp) with that TU's vector traits. Internal —
// include batch_sw.hpp instead.
//
// Layout: candidate l lives in lane l; column j is target position j; the
// inner loop walks the query rows, one query PER LANE (lanes whose query is
// shorter than the group's row count see kQueryPadCode rows — inert under
// the pad-safety precondition documented in batch_sw_detail.hpp). Because
// rows are visited in order within a column, the vertical-gap term F is
// computed exactly — no striping, so no lazy-F fixup loop. The arithmetic
// (biased unsigned saturating 8-bit, zero-floored signed 16-bit) copies the
// striped kernel's cell updates operation-for-operation, which is what
// makes score / t_end / used_16bit bit-identical per pair across every
// engine and tier.
//
// Recurrence (match the scalar reference in striped_scalar_score):
//   E(i,j) = max(E(i,j-1) - ge, H(i,j-1) - go)     horizontal gap
//   F(i,j) = max(F(i-1,j) - ge, H(i-1,j) - go)     vertical gap
//   H(i,j) = max(0, H(i-1,j-1) + sub(q[i],t[j]), E(i,j), F(i,j))
//
// t_end: per lane, the smallest column whose column-max equals the global
// best (strict `>` on a running best == first best column == pinned
// smallest-t_end tie-break).
//
// The trace pass (batch_trace16) is the other way round: query rows outer,
// target columns inner, mirroring sw_align cell for cell — unfloored E/F, a
// provenance byte per lane per cell, and a strict-`>` running best that
// lands on smith_waterman's first row-major best cell. Besides the score
// passes' operations it needs gt16 (compare to a mask), blend16 / keep16 /
// drop16 (select by mask), or_ and store_narrow16 (the low byte of each
// 16-bit lane, i.e. lanes16 bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "align/batch_sw_detail.hpp"
#include "align/sw_engine.hpp"  // provenance bit layout

namespace mera::align::detail {

template <class T>
void batch_pass8(const BatchPass8Args& a) {
  using V = typename T::V;
  constexpr int L = T::kLanes8;
  const V vGapO = T::set1_u8(static_cast<std::uint8_t>(a.gap_open_total));
  const V vGapE = T::set1_u8(static_cast<std::uint8_t>(a.gap_extend));
  const V vBias = T::set1_u8(static_cast<std::uint8_t>(a.bias));
  const V vMatch = T::set1_u8(static_cast<std::uint8_t>(a.match_bias));
  const V vMism = T::set1_u8(static_cast<std::uint8_t>(a.mismatch_bias));

  // Row-indexed DP state, one vector (L lanes) per query row. Plain byte
  // buffers + unaligned load/store keep the template free of vector-typed
  // containers (and their attribute-alignment warnings).
  std::vector<std::uint8_t> Hrow(a.m * L, 0), Evec(a.m * L, 0);
  alignas(64) std::uint8_t colmax[L];
  std::uint8_t best[L] = {};
  std::size_t t_end[L] = {};

  for (std::size_t j = 0; j < a.nmax; ++j) {
    const V vT = T::load(a.tbuf + j * L);
    V vF = T::zero();
    V vHdiag = T::zero();  // H(-1, j-1) boundary row
    V vColMax = T::zero();
    for (std::size_t i = 0; i < a.m; ++i) {
      const V vHup = T::load(Hrow.data() + i * L);  // H(i, j-1)
      const V vE = T::max_u8(T::subs_u8(T::load(Evec.data() + i * L), vGapE),
                             T::subs_u8(vHup, vGapO));
      const V vSub = T::sel_eq8(vT, T::load(a.qbuf + i * L), vMatch, vMism);
      V vH = T::subs_u8(T::adds_u8(vHdiag, vSub), vBias);
      vH = T::max_u8(vH, vE);
      vH = T::max_u8(vH, vF);
      vColMax = T::max_u8(vColMax, vH);
      T::store(Hrow.data() + i * L, vH);
      T::store(Evec.data() + i * L, vE);
      vF = T::max_u8(T::subs_u8(vF, vGapE), T::subs_u8(vH, vGapO));
      vHdiag = vHup;
    }
    T::store(colmax, vColMax);
    for (int l = 0; l < L; ++l)
      if (j < a.len[l] && colmax[l] > best[l]) {
        best[l] = colmax[l];
        t_end[l] = j;
      }
  }
  for (int l = 0; l < L; ++l) {
    if (a.len[l] == 0 || a.qlen[l] == 0) continue;
    a.best[l] = best[l];
    a.t_end[l] = t_end[l];
    a.saturated[l] = best[l] >= 255 - a.bias ? 1 : 0;
  }
}

template <class T>
void batch_pass16(const BatchPass16Args& a) {
  using V = typename T::V;
  constexpr int L = T::kLanes16;
  const V vGapO = T::set1_i16(static_cast<std::int16_t>(a.gap_open_total));
  const V vGapE = T::set1_i16(static_cast<std::int16_t>(a.gap_extend));
  const V vMatch = T::set1_i16(static_cast<std::int16_t>(a.match));
  const V vMism = T::set1_i16(static_cast<std::int16_t>(a.mismatch));

  std::vector<std::int16_t> Hrow(a.m * L, 0), Evec(a.m * L, 0);
  alignas(64) std::int16_t colmax[L];
  std::int16_t best[L] = {};
  std::size_t t_end[L] = {};

  for (std::size_t j = 0; j < a.nmax; ++j) {
    const V vT = T::load(a.tbuf + j * L);
    V vF = T::zero();
    V vHdiag = T::zero();
    V vColMax = T::zero();
    for (std::size_t i = 0; i < a.m; ++i) {
      const V vHup = T::load(Hrow.data() + i * L);
      const V vHgapUp =
          T::max_i16(T::subs_i16(vHup, vGapO), T::zero());
      const V vE =
          T::max_i16(T::subs_i16(T::load(Evec.data() + i * L), vGapE), vHgapUp);
      const V vSub = T::sel_eq16(vT, T::load(a.qbuf + i * L), vMatch, vMism);
      V vH = T::max_i16(T::adds_i16(vHdiag, vSub), T::zero());
      vH = T::max_i16(vH, vE);
      vH = T::max_i16(vH, vF);
      vColMax = T::max_i16(vColMax, vH);
      T::store(Hrow.data() + i * L, vH);
      T::store(Evec.data() + i * L, vE);
      vF = T::max_i16(T::subs_i16(vF, vGapE),
                      T::max_i16(T::subs_i16(vH, vGapO), T::zero()));
      vHdiag = vHup;
    }
    T::store(colmax, vColMax);
    for (int l = 0; l < L; ++l)
      if (j < a.len[l] && colmax[l] > best[l]) {
        best[l] = colmax[l];
        t_end[l] = j;
      }
  }
  for (int l = 0; l < L; ++l) {
    if (a.len[l] == 0 || a.qlen[l] == 0) continue;
    a.best[l] = best[l];
    a.t_end[l] = t_end[l];
    a.saturated[l] = best[l] >= 32767 ? 1 : 0;
  }
}

template <class T>
void batch_trace16(const BatchTrace16Args& a) {
  using V = typename T::V;
  using M = typename T::M;
  constexpr int L = T::kLanes16;
  const V vZero = T::zero();
  const V vNegInf = T::set1_i16(kTraceNegInf);
  const V vGapO = T::set1_i16(static_cast<std::int16_t>(a.gap_open_total));
  const V vGapE = T::set1_i16(static_cast<std::int16_t>(a.gap_extend));
  const V vMatch = T::set1_i16(static_cast<std::int16_t>(a.match));
  const V vMism = T::set1_i16(static_cast<std::int16_t>(a.mismatch));
  const V vOne = T::set1_i16(1);
  const V vFromDiag = T::set1_i16(kHDiag);
  const V vFromE = T::set1_i16(kHFromE);
  const V vFromF = T::set1_i16(kHFromF);
  const V vEExt = T::set1_i16(kEExt);
  const V vFExt = T::set1_i16(kFExt);

  // Row 0: H = 0 (local boundary), F = "-inf" (no vertical gap open yet).
  for (std::size_t j = 0; j < a.nmax; ++j) {
    T::store(a.h + j * L, vZero);
    T::store(a.f + j * L, vNegInf);
  }
  V vBest = vZero, vBestI = vZero, vBestJ = vZero;
  V vI = vZero;
  for (std::size_t i = 0; i < a.m; ++i) {
    vI = T::adds_i16(vI, vOne);  // 1-based row of this sweep
    const V vQ = T::load(a.qbuf + i * L);
    std::uint8_t* const prow = a.prov + i * a.nmax * L;
    V vE = vNegInf;
    V vHleft = vZero;  // H(i, j-1)
    V vHdiag = vZero;  // H(i-1, j-1)
    V vJ = vZero;
    // The row's first strictly-better cell per lane, against the best so far.
    V vRowBest = vBest, vRowJ = vZero;
    for (std::size_t j = 0; j < a.nmax; ++j) {
      vJ = T::adds_i16(vJ, vOne);
      const V vHup = T::load(a.h + j * L);  // H(i-1, j)
      const V vEOpen = T::subs_i16(vHleft, vGapO);
      const V vEExtd = T::subs_i16(vE, vGapE);
      const M eOpens = T::gt16(vEOpen, vEExtd);  // !(ext >= open)
      vE = T::max_i16(vEOpen, vEExtd);
      const V vFOpen = T::subs_i16(vHup, vGapO);
      const V vFExtd = T::subs_i16(T::load(a.f + j * L), vGapE);
      const M fOpens = T::gt16(vFOpen, vFExtd);
      const V vF = T::max_i16(vFOpen, vFExtd);
      T::store(a.f + j * L, vF);

      const V vDiag = T::adds_i16(
          vHdiag, T::sel_eq16(T::load(a.tbuf + j * L), vQ, vMatch, vMism));
      V vH = T::max_i16(vDiag, vZero);
      V vSrc = T::keep16(T::gt16(vDiag, vZero), vFromDiag);
      const M eWins = T::gt16(vE, vH);
      vH = T::max_i16(vH, vE);
      vSrc = T::blend16(vSrc, vFromE, eWins);
      const M fWins = T::gt16(vF, vH);
      vH = T::max_i16(vH, vF);
      vSrc = T::blend16(vSrc, vFromF, fWins);
      vSrc = T::or_(vSrc, T::drop16(eOpens, vEExt));
      vSrc = T::or_(vSrc, T::drop16(fOpens, vFExt));
      T::store_narrow16(prow + j * L, vSrc);
      T::store(a.h + j * L, vH);

      const M better = T::gt16(vH, vRowBest);
      vRowBest = T::max_i16(vRowBest, vH);
      vRowJ = T::blend16(vRowJ, vJ, better);
      vHdiag = vHup;
      vHleft = vH;
    }
    const M rowWins = T::gt16(vRowBest, vBest);
    vBest = vRowBest;  // never below vBest: it started there
    vBestI = T::blend16(vBestI, vI, rowWins);
    vBestJ = T::blend16(vBestJ, vRowJ, rowWins);
  }

  alignas(64) std::int16_t best[L], bi[L], bj[L];
  T::store(best, vBest);
  T::store(bi, vBestI);
  T::store(bj, vBestJ);
  for (int l = 0; l < L; ++l) {
    a.best[l] = best[l];
    a.best_i[l] = static_cast<std::size_t>(bi[l]);
    a.best_j[l] = static_cast<std::size_t>(bj[l]);
  }
}

}  // namespace mera::align::detail
