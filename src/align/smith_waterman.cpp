#include "align/smith_waterman.hpp"

#include <algorithm>
#include <vector>

#include "align/sw_engine.hpp"

namespace mera::align {

LocalAlignment smith_waterman(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> target,
                              const Scoring& sc) {
  using namespace detail;
  const std::size_t m = query.size(), n = target.size();
  LocalAlignment out;
  if (m == 0 || n == 0) return out;

  const int go = sc.gap_open + sc.gap_extend;  // cost of a gap's first base
  const int ge = sc.gap_extend;

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
      const int diag = hdiag + sc.substitution(qc, target[j - 1]);
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

LocalAlignment smith_waterman(std::string_view query, std::string_view target,
                              const Scoring& sc) {
  const auto q = dna_codes(query);
  const auto t = dna_codes(target);
  return smith_waterman(std::span<const std::uint8_t>(q),
                        std::span<const std::uint8_t>(t), sc);
}

int sw_score_reference(std::span<const std::uint8_t> query,
                       std::span<const std::uint8_t> target,
                       const Scoring& sc) {
  const std::size_t m = query.size(), n = target.size();
  if (m == 0 || n == 0) return 0;
  const int go = sc.gap_open + sc.gap_extend;
  const int ge = sc.gap_extend;
  std::vector<int> H(n + 1, 0), Hprev(n + 1, 0), Fv(n + 1, detail::kNegInf);
  int best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    std::swap(Hprev, H);
    H[0] = 0;
    int E = detail::kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      E = std::max(E - ge, H[j - 1] - go);
      Fv[j] = std::max(Fv[j] - ge, Hprev[j] - go);
      const int diag =
          Hprev[j - 1] + sc.substitution(query[i - 1], target[j - 1]);
      H[j] = std::max({0, diag, E, Fv[j]});
      best = std::max(best, H[j]);
    }
  }
  return best;
}

}  // namespace mera::align
