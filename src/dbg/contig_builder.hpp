// Unitig traversal over the k-mer spectrum: Meraculous-style contig
// generation (the paper's Section I "contigs ... generated" step, built on
// the same distributed hash table per Section III).
//
// A k-mer is UU ("unique-unique") when it is solid (count >= min_count) and
// has exactly one witnessed extension on each side. Contigs are maximal
// chains of UU k-mers connected through unique extensions. The spectrum is
// distributed; this walker runs as a serial post-pass over the shards (the
// fully parallel traversal is the SC'14 paper's own contribution and out of
// scope here).
#pragma once

#include <string>
#include <vector>

#include "dbg/kmer_spectrum.hpp"

namespace mera::dbg {

struct ContigBuildOptions {
  std::uint32_t min_count = 2;     ///< solid k-mer threshold (error removal)
  std::uint32_t min_ext_votes = 2; ///< votes required for a unique extension
  std::size_t min_contig_len = 0;  ///< drop shorter contigs (0 = keep all)
};

/// Walk the UU graph of `spectrum` into contigs. Deterministic output order
/// (sorted), independent of hash iteration order.
[[nodiscard]] std::vector<std::string> build_contigs(
    const KmerSpectrum& spectrum, int nranks,
    const ContigBuildOptions& opt = {});

}  // namespace mera::dbg
