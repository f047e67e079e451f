// The Lemma-1 exact-match fast path (Section IV-A).
//
// If a query's seed hits a fragment whose seeds are all uniquely located
// (single_copy_seeds == true) and the query matches the target exactly over
// its full length at the placement the seed implies, then no other target can
// match the query anywhere (Lemma 1 with s == q): one seed lookup plus one
// packed string comparison replaces L lookups and C Smith-Waterman runs.
//
// The aligner tries it per strand, at the strand's first seed with hits; the
// forward strand goes first, and a forward exact match ends the read. A read
// that is exact on the reverse strand would first spend a lookup on every
// forward seed, so the aligner looks up the first and the last seed window
// before anything else (one canonical lookup serves both strands). If the
// first has no forward hits and the last has reverse-complement hits, it
// makes the reverse strand's try at once. When that matches and every
// fragment holding a seed of the placement has `no_rc_seeds` — no seed of
// it has its reverse complement in the index — no forward seed of the read
// is indexed, so the forward pass would have found nothing: the exact
// record is emitted after two lookups, with exactly the bytes the two full
// passes give. Otherwise both passes run, reusing the lookups and the try's
// outcome.
#pragma once

#include <cstdint>
#include <optional>

#include "dht/seed_index.hpp"
#include "seq/packed_seq.hpp"

namespace mera::core {

struct ExactPlacement {
  std::uint32_t target_id = 0;
  std::size_t t_begin = 0;  ///< where query base 0 lands on the full target
};

/// Placement of the whole query implied by seed `hit` at query offset `q_off`.
/// nullopt when the query would hang off either end of the target (the
/// exact-match path requires the query to lie fully inside the target).
[[nodiscard]] std::optional<ExactPlacement> exact_placement(
    const dht::SeedHit& hit, std::size_t q_off, std::size_t q_len,
    std::size_t target_len);

/// Full-length packed comparison of query vs target at `placement`.
[[nodiscard]] bool exact_compare(const seq::PackedSeq& query,
                                 const seq::PackedSeq& target,
                                 const ExactPlacement& placement);

}  // namespace mera::core
