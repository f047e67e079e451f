// Load balancing via randomization (Section IV-B, Theorem 1).
//
// Query processing cost varies wildly: an exact-match read costs one lookup +
// one memcmp, while a repeat-heavy read costs L lookups and C Smith-Waterman
// runs. The input files group reads by genome region, so blocked partitioning
// concentrates the slow reads. Randomly permuting the query order before the
// blocked split spreads them: by the balls-into-bins bound of Raab & Steger,
// with h slow queries on p processors the max load exceeds the mean h/p by at
// most ~2*sqrt(2*(h/p)*log p) with high probability.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace mera::core {

/// Uniform draw from [0, bound) without modulo bias: `rng() % bound` favours
/// small values whenever 2^64 is not a multiple of `bound`. Rejection on the
/// truncated top bucket keeps every value exactly equally likely, and the
/// algorithm is fully specified (mt19937_64 output is portable), so a fixed
/// seed still yields the same draw sequence on every platform.
/// `bound` must be > 0.
[[nodiscard]] inline std::uint64_t uniform_below(std::mt19937_64& rng,
                                                 std::uint64_t bound) {
  assert(bound > 0 && "uniform_below: empty range");
  std::uint64_t x = rng();
  std::uint64_t r = x % bound;
  // x - r is the bucket base; buckets starting above 2^64 - bound are
  // truncated and must be redrawn (at most one incomplete bucket exists).
  while (x - r > std::uint64_t{0} - bound) {
    x = rng();
    r = x % bound;
  }
  return r;
}

/// Fisher-Yates permutation with a fixed seed (all ranks must agree on the
/// permutation, so the seed is part of the aligner configuration). Uses the
/// unbiased bounded draw above, so every permutation is equally likely.
template <typename T>
void permute_queries(std::vector<T>& items, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_below(rng, i));
    std::swap(items[i - 1], items[j]);
  }
}

/// Theorem-1 style high-probability bound on the max number of slow queries
/// landing on one of p processors when h >> p*log p are thrown uniformly.
/// (The paper prints the bound as 2*sqrt(2*h*p*log p) above the mean; the
/// cited Raab-Steger result gives the per-bin deviation used here,
/// sqrt-of-mean scaling.)
[[nodiscard]] inline double max_load_bound(std::uint64_t h, int p) {
  if (p <= 1) return static_cast<double>(h);
  const double mean = static_cast<double>(h) / p;
  return mean + 2.0 * std::sqrt(2.0 * mean * std::log(static_cast<double>(p)));
}

/// Max bin occupancy of one uniform h-into-p assignment (Monte Carlo helper
/// for validating the bound).
[[nodiscard]] inline std::uint64_t simulate_max_load(std::uint64_t h, int p,
                                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> bins(static_cast<std::size_t>(p), 0);
  for (std::uint64_t i = 0; i < h; ++i)
    ++bins[static_cast<std::size_t>(
        uniform_below(rng, static_cast<std::uint64_t>(p)))];
  return *std::max_element(bins.begin(), bins.end());
}

}  // namespace mera::core
