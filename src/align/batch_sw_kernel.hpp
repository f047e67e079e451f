// Traits-templated inter-candidate traced SW pass, instantiated once per ISA
// TU (batch_sw_sse2/avx2/avx512.cpp) with that TU's vector traits.
// Internal — include batch_sw.hpp instead.
//
// Layout: candidate l lives in lane l, one query PER LANE (lanes whose query
// or target is shorter than the group's see pad rows / columns — inert under
// the pad-safety precondition documented in batch_sw_detail.hpp). Query rows
// are the outer loop and target columns the inner one, mirroring the fill in
// smith_waterman.cpp cell for cell:
//   E(i,j) = max(E(i,j-1) - ge, H(i,j-1) - go)     horizontal gap
//   F(i,j) = max(F(i-1,j) - ge, H(i-1,j) - go)     vertical gap
//   H(i,j) = max(0, H(i-1,j-1) + sub(q[i],t[j]), E(i,j), F(i,j))
// with unfloored E/F, a provenance byte per lane per cell, and a strict-`>`
// running best that lands on smith_waterman's first row-major best cell.
// The traits supply 16-bit load/store, set1/adds/subs/max, sel_eq16 (pick
// match or mismatch), gt16 (compare to a mask), blend16 / keep16 / drop16
// (select by mask), or_ and store_narrow16 (the low byte of each 16-bit
// lane, i.e. lanes16 bytes).
#pragma once

#include <cstdint>

#include "align/batch_sw_detail.hpp"
#include "align/sw_engine.hpp"  // provenance bit layout

namespace mera::align::detail {

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
