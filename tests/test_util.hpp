// Shared helpers for the mera test suites: deterministic random sequence
// generators and seed ground-truth builders that were previously copy-pasted
// across test files. Everything is header-only and seeded by the caller so
// each test stays reproducible in isolation.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "align/smith_waterman.hpp"
#include "seq/kmer.hpp"

namespace mera::testutil {

/// "" when two alignments agree on every field, else the first difference —
/// the kernel-equivalence tests' field-for-field comparison.
inline std::string alignment_diff(const align::LocalAlignment& got,
                                  const align::LocalAlignment& want) {
  const auto field = [](const char* name, auto g, auto w) {
    return std::string(name) + " " + std::to_string(g) + " vs " +
           std::to_string(w);
  };
  if (got.score != want.score) return field("score", got.score, want.score);
  if (got.q_begin != want.q_begin)
    return field("q_begin", got.q_begin, want.q_begin);
  if (got.q_end != want.q_end) return field("q_end", got.q_end, want.q_end);
  if (got.t_begin != want.t_begin)
    return field("t_begin", got.t_begin, want.t_begin);
  if (got.t_end != want.t_end) return field("t_end", got.t_end, want.t_end);
  if (got.mismatches != want.mismatches)
    return field("mismatches", got.mismatches, want.mismatches);
  if (got.gap_columns != want.gap_columns)
    return field("gap_columns", got.gap_columns, want.gap_columns);
  if (got.cigar.to_string() != want.cigar.to_string())
    return "cigar " + got.cigar.to_string() + " vs " + want.cigar.to_string();
  return "";
}

/// Uniform random DNA over {A,C,G,T}.
inline std::string random_dna(std::mt19937_64& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = "ACGT"[rng() & 3u];
  return s;
}

/// Ground-truth seed multimap: seed string -> hit, for every valid k-mer
/// window of every sequence. `make(sid, off)` builds the mapped value from
/// the sequence index and the window's offset, so callers can produce their
/// module's own hit type (e.g. dht::SeedHit).
template <typename Hit, typename MakeHit>
std::multimap<std::string, Hit> seed_ground_truth(
    const std::vector<std::string>& seqs, int k, MakeHit make) {
  std::multimap<std::string, Hit> truth;
  for (std::uint32_t sid = 0; sid < seqs.size(); ++sid)
    seq::for_each_seed(std::string_view(seqs[sid]), k,
                       [&](std::size_t off, const seq::Kmer& m) {
                         truth.emplace(m.to_string(), make(sid, off));
                       });
  return truth;
}

/// Occurrence count of each distinct seed across `seqs`.
inline std::map<std::string, int> seed_counts(
    const std::vector<std::string>& seqs, int k) {
  std::map<std::string, int> counts;
  for (const auto& s : seqs)
    seq::for_each_seed(std::string_view(s), k,
                       [&](std::size_t, const seq::Kmer& m) {
                         ++counts[m.to_string()];
                       });
  return counts;
}

}  // namespace mera::testutil
