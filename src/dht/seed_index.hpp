// The distributed seed index (Sections II-B and III).
//
// A distributed hash table mapping each length-k seed extracted from the
// target fragments to the list of (fragment, offset) locations it came from.
// It is keyed on canonical seeds — the lesser of a seed and its reverse
// complement — so one lookup of a read position returns the hits of both
// strands. Buckets are partitioned across ranks by djb2(canonical seed) mod
// nranks — the paper's seed-to-processor map. Construction runs in one of two
// modes:
//
//  * naive        — every seed incurs one fine-grained remote access plus one
//                   remote slot reservation (modeled as a global atomic), the
//                   straw-man the paper starts from;
//  * aggregating  — per-destination buffers of S entries flushed with one
//                   atomic_fetchadd + one aggregate transfer.
//
// Either way entries land in the owner's local-shared stack (each writer
// reserves its own slots, so no locks), sized exactly by a counting
// pre-pass. Once all have landed, each owner takes its stack and indexes it
// in place — zero communication, no copy:
//
//  * entries — the landed vector, sorted into canonical runs (one 256-way
//              pass on the top hash byte, then a sort per part). A run is
//              two subruns: first the hits whose seed IS the canonical seed,
//              then those whose seed is its reverse complement. The run's
//              first entry holds the run's and the first subrun's lengths;
//  * dir     — the first entry of each of bit_ceil(distinct) >= 16 buckets,
//              keyed by the top hash bits, plus a sentinel;
//  * filter  — 16 bits per bucket; each run sets two, picked by the hash
//              bits below the bucket bits, so most absent seeds are rejected
//              with one load.
//
// A lookup of one read position is three steps, which the aligner runs as
// a software pipeline over a read's windows:
//
//  * probe    — hash the window once: its canonical seed's owner rank
//               (djb2) and mixed hash, which picks the bucket and its
//               filter bits (probe());
//  * prefetch — a few windows ahead, start loading the bucket's filter word
//               and directory entries (prefetch_bucket()); a few windows
//               later, once those have landed, test the filter and start
//               loading the bucket's first run head, both of its cache
//               lines when it straddles two (prefetch_run());
//  * lookup   — test the filter bits, walk the run heads of
//               dir[b]..dir[b + 1] and copy the matching subrun's hits — for
//               the aligner, both subruns, in one message.
//
// Prefetches change no result and no modeled cost: a lookup returns and
// charges the same with or without them.
//
// A subrun's length is its oriented seed's total occurrence
// count (Section IV-A), so each strand sees exactly the hits, totals and
// max-hits cut an index keyed on oriented seeds would give it. A palindrome
// (a seed that is its own reverse complement, possible only for even k) has
// one subrun, which both of its orientations return.
//
// Run order is canonical, so the index — and every SAM byte built on it —
// is the same for any thread arrival order, rank count or mode. Runs are
// placed by (mixed_hash, canonical seed words); hits within a subrun are
// sorted by (hash(target_id), t_pos, fragment_id), so a max_hits cut
// (Section IV-C) keeps the targets whose hash is lowest. Hashing the target, not each hit,
// keeps that an unbiased sample of targets that is the SAME for every seed
// of a repeat, so a read's (target, diagonal) candidates still collapse.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dht/aggregating_store.hpp"
#include "dht/local_shared_stack.hpp"
#include "pgas/runtime.hpp"
#include "seq/kmer.hpp"

namespace mera::dht {

// A seed's location. Mirrors the paper's hash-table value — "a pointer to
// the target sequence ... we also keep track of the exact offset" — so that
// one lookup directly yields the candidate target with no extra resolution
// round-trip. fragment_id additionally identifies the index fragment whose
// single_copy_seeds and no_rc_seeds flags gate the exact-match fast path.
struct SeedHit {
  std::uint32_t fragment_id = 0;  ///< global fragment id (core::TargetStore)
  std::uint32_t target_id = 0;    ///< global id of the parent target
  std::uint32_t t_pos = 0;        ///< seed start within the full target
  friend bool operator==(const SeedHit&, const SeedHit&) = default;
};

struct SeedEntry {
  std::array<std::uint64_t, 2> key{};  ///< the canonical seed's words
  SeedHit hit;
  std::uint32_t run = 0;  ///< owner-set: run length in a run's head, else 0
  /// Inserter-set: 1 when the hit's seed is the reverse complement of `key`,
  /// else 0. Owner-set in a run's head: the length of its first subrun.
  std::uint32_t split = 0;
};
// `run` and `split` fill what a Kmer's k and padding took, so the modeled
// bytes of each put are unchanged.
static_assert(sizeof(SeedEntry) == 40);

class SeedIndex {
 public:
  struct Options {
    int k = 51;
    bool aggregating_stores = true;
    std::size_t buffer_S = 1000;  ///< aggregation buffer size (paper: 1000)
  };

  SeedIndex(const pgas::Topology& topo, Options opt);
  SeedIndex(const SeedIndex&) = delete;
  SeedIndex& operator=(const SeedIndex&) = delete;

  [[nodiscard]] int k() const noexcept { return opt_.k; }
  [[nodiscard]] int owner_of(const seq::StrandedKmer& seed) const noexcept {
    return owner_of_key(seed.canonical());
  }

  // --- construction (three collective stages) -------------------------------

  /// Stage 1: tally one seed (local, cheap). Call for every local seed.
  void count_seed(pgas::Rank& rank, const seq::StrandedKmer& seed);
  /// Stage 1 end: publish counts to owners, allocate stacks (collective).
  void finish_count(pgas::Rank& rank);

  /// Stage 2: route one entry, keyed on the seed's canonical form, to its
  /// owner (mode-dependent cost). Every seed must be k() long: runs key on
  /// the seed's words alone.
  void insert(pgas::Rank& rank, const seq::StrandedKmer& seed, SeedHit hit);
  /// Stage 2 end: flush buffers, sort each owner's entries into runs and
  /// build the bucket directory (collective).
  void finish_insert(pgas::Rank& rank);

  // --- queries ---------------------------------------------------------------

  /// A seed's hashes, computed once per read position: the owner rank and
  /// the mixed hash of its canonical form.
  struct Probe {
    std::uint64_t hash = 0;
    int owner = 0;
  };
  [[nodiscard]] Probe probe(const seq::StrandedKmer& seed) const noexcept {
    const seq::Kmer key = seed.canonical();
    return {key.mixed_hash(), owner_of_key(key)};
  }

  /// Pipeline distances, in lookups: a caller probes and runs stage 1 for
  /// the seed kBucketAhead lookups ahead of the one it makes, and stage 2
  /// for the one kRunAhead ahead. (Swept over 4-16 and 2-8 on e2ebench.)
  static constexpr std::size_t kBucketAhead = 8;
  static constexpr std::size_t kRunAhead = 4;

  /// Pipeline stage 1: start loading the probed bucket's filter word and
  /// directory entries. Reads nothing.
  void prefetch_bucket(const Probe& p) const noexcept;
  /// Pipeline stage 2, after stage 1 has had time to land: if the bucket's
  /// filter passes, start loading its first run head (both cache lines when
  /// the 40-byte head straddles two).
  void prefetch_run(const Probe& p) const noexcept;

  /// The aligner's lookup of one read position, whose probe is `p`: appends
  /// up to `max_hits` locations of `seed.fwd` to `out` and, unless `rc_out`
  /// is null, up to `max_hits` of `seed.rc` to `*rc_out`, each in the
  /// canonical order.
  /// Returns both seeds' *total* occurrence counts {fwd, rc} (0 = absent;
  /// > max_hits means the list was truncated — the Section IV-C threshold).
  /// Charges one request/response transfer, whose payload is every hit
  /// copied, when the owner is remote. After finish_insert() the table is
  /// immutable, so lookups are safe from any number of concurrent ranks —
  /// this is what lets an IndexedReference serve many AlignSession batches
  /// (and sessions) without copying.
  std::array<std::size_t, 2> lookup(pgas::Rank& rank,
                                    const seq::StrandedKmer& seed,
                                    const Probe& p, std::size_t max_hits,
                                    std::vector<SeedHit>& out,
                                    std::vector<SeedHit>* rc_out) const;

  /// The lookup above, probing `seed` first.
  std::array<std::size_t, 2> lookup(pgas::Rank& rank,
                                    const seq::StrandedKmer& seed,
                                    std::size_t max_hits,
                                    std::vector<SeedHit>& out,
                                    std::vector<SeedHit>* rc_out) const {
    return lookup(rank, seed, probe(seed), max_hits, out, rc_out);
  }

  /// Look up one oriented seed: the fwd side of the lookup above.
  std::size_t lookup(pgas::Rank& rank, const seq::Kmer& seed,
                     std::size_t max_hits, std::vector<SeedHit>& out) const {
    return lookup(rank, seq::StrandedKmer::of(seed), max_hits, out,
                  nullptr)[0];
  }

  /// Modeled response payload of a lookup that returned `nhits` hits.
  [[nodiscard]] static std::size_t lookup_transfer_bytes(std::size_t nhits) noexcept {
    return sizeof(seq::Kmer) + nhits * sizeof(SeedHit);
  }

  /// Exact-match preprocessing support: for every *local* entry whose seed
  /// occurs more than once index-wide (`duplicate`) or whose seed's reverse
  /// complement is indexed too (`rc_indexed`; a palindrome is its own),
  /// invoke fn(hit, duplicate, rc_indexed). Local, post-finalize.
  template <typename Fn>
  void for_each_local_marked_hit(pgas::Rank& rank, Fn&& fn) const {
    const auto& e = stores_[static_cast<std::size_t>(rank.id())].entries;
    const bool even_k = opt_.k % 2 == 0;
    for (std::size_t i = 0; i < e.size(); i += e[i].run) {
      // A lone entry is marked only as a palindrome, which needs even k.
      if (e[i].run == 1 && !even_k) continue;
      const std::uint32_t first = e[i].split, second = e[i].run - first;
      const bool rc_indexed =
          second == 0 ? even_k && palindrome(e[i].key) : first != 0;
      if (!rc_indexed && first < 2 && second < 2) continue;
      for (std::uint32_t j = 0; j != e[i].run; ++j) {
        const bool duplicate = (j < first ? first : second) > 1;
        if (duplicate || rc_indexed) fn(e[i + j].hit, duplicate, rc_indexed);
      }
    }
  }

  // --- diagnostics -----------------------------------------------------------

  [[nodiscard]] std::size_t local_distinct_seeds(int rank) const;
  [[nodiscard]] std::size_t total_entries() const;

 private:
  /// Owner-side state for the rank's shard of the table; immutable after
  /// finish_insert().
  struct RankStore {
    std::vector<SeedEntry> entries;     ///< canonical runs, lengths in heads
    std::vector<std::uint32_t> dir;     ///< first entry per bucket + sentinel
    std::vector<std::uint16_t> filter;  ///< per bucket: two bits per run
    unsigned shift = 64;                ///< bucket = mixed_hash >> shift
    std::size_t distinct = 0;           ///< runs, i.e. distinct canonical seeds
  };

  [[nodiscard]] int owner_of_key(const seq::Kmer& canonical) const noexcept {
    return static_cast<int>(canonical.djb2() %
                            static_cast<std::uint64_t>(nranks_));
  }
  static void build_directory(RankStore& st, int k);
  [[nodiscard]] bool palindrome(const std::array<std::uint64_t, 2>& key) const;

  Options opt_;
  int nranks_;
  std::vector<RankStore> stores_;                    // per rank
  std::vector<LocalSharedStack<SeedEntry>> stacks_;  // per rank landing zone
  // deque: GlobalCounter is immovable (atomic member); deque constructs in place
  std::deque<pgas::GlobalCounter> incoming_;         // per rank entry counts
  // Construction-time per-caller state, indexed by rank id.
  std::vector<std::vector<std::uint64_t>> pending_counts_;
  std::vector<std::unique_ptr<AggregatingStore<SeedEntry>>> aggregators_;
};

}  // namespace mera::dht
