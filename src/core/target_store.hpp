// Distributed store of target sequences (contigs) and their index fragments.
//
// Targets are distributed across ranks exactly as in the paper: each rank
// reads a distinct portion of the target file and keeps those sequences in
// its shared segment, addressable by every other rank (Figure 2). Global
// target ids are blocked per rank so ownership is a O(1) computation.
//
// On top of targets sits the *fragment* table (Section IV-A, last part): each
// target is cut into subsequences of a fixed fragment length that overlap by
// k-1 bases, so their seed sets are disjoint and their union is exactly the
// target's seed set. Fragments — not whole targets — are what the seed index
// references, and the `single_copy_seeds` flag lives per fragment; shorter
// fragments make the flag far more likely to survive, which is the whole
// point of the fragmentation strategy. A second flag, `no_rc_seeds`, says that
// no seed of the fragment has its reverse complement in the index; it lets a
// read that is exact on the reverse strand skip its forward pass (see
// core/exact_match.hpp). A fragment length of SIZE_MAX yields one fragment
// per target (fragmentation off).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pgas/runtime.hpp"
#include "seq/fasta.hpp"
#include "seq/packed_seq.hpp"

namespace mera::core {

struct Target {
  std::string name;
  seq::PackedSeq seq;
};

struct Fragment {
  std::uint32_t parent_target = 0;  ///< global target id
  std::uint32_t parent_offset = 0;  ///< fragment start within the target
  std::uint32_t length = 0;
  /// True iff every seed of this fragment occurs exactly once across *all*
  /// fragments (Lemma 1 precondition). Set during index finalization.
  std::atomic<bool> single_copy_seeds{true};
  /// True iff no seed of this fragment has its reverse complement anywhere
  /// in the index (a palindromic seed is its own). Set during index
  /// finalization.
  std::atomic<bool> no_rc_seeds{true};

  Fragment() = default;
  Fragment(std::uint32_t parent, std::uint32_t off, std::uint32_t len)
      : parent_target(parent), parent_offset(off), length(len) {}
  Fragment(const Fragment& o)
      : parent_target(o.parent_target),
        parent_offset(o.parent_offset),
        length(o.length),
        single_copy_seeds(o.single_copy_seeds.load(std::memory_order_relaxed)),
        no_rc_seeds(o.no_rc_seeds.load(std::memory_order_relaxed)) {}
};

class TargetStore {
 public:
  struct Options {
    int seed_len = 51;
    /// Fragment length F; fragments start every F-k+1 bases. SIZE_MAX = off.
    std::size_t fragment_len = std::numeric_limits<std::size_t>::max();
  };

  TargetStore(int nranks, Options opt);

  // --- collective construction ---------------------------------------------
  /// Each rank deposits the targets it read from its file partition, then all
  /// ranks call finish_construction() (internally barrier-synchronized).
  void add_local_targets(pgas::Rank& rank, std::vector<seq::SeqRecord> recs);
  /// Collective: assigns global ids (block per rank) and builds fragments.
  void finish_construction(pgas::Rank& rank);

  // --- global id arithmetic -------------------------------------------------
  [[nodiscard]] std::uint32_t num_targets() const noexcept { return total_targets_; }
  [[nodiscard]] std::uint32_t num_fragments() const noexcept { return total_fragments_; }
  [[nodiscard]] int owner_of_target(std::uint32_t gid) const noexcept;
  [[nodiscard]] int owner_of_fragment(std::uint32_t fid) const noexcept;
  /// Global target ids owned by `rank`: [first, first+count).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> local_target_range(int rank) const;
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> local_fragment_range(int rank) const;

  // --- accessors (one-sided; caller is charged for remote owners) ----------
  /// Fetch a target by global id; charges a transfer of its packed bytes when
  /// the owner is a different rank. (The target cache layers on top of this.)
  [[nodiscard]] const Target& fetch_target(pgas::Rank& rank, std::uint32_t gid) const;
  /// Modeled bytes a fetch_target of `gid` moves (packed sequence payload).
  [[nodiscard]] std::size_t target_transfer_bytes(std::uint32_t gid) const;

  /// Clear the single-copy flag of fragment `fid` (one-sided put; used while
  /// propagating duplicate-seed marks during index finalization).
  void clear_single_copy(pgas::Rank& rank, std::uint32_t fid);
  /// Clear the no_rc_seeds flag of fragment `fid` (one-sided put, as above).
  void clear_no_rc_seeds(pgas::Rank& rank, std::uint32_t fid);

  /// True iff every fragment holding a seed of the window [begin, begin +
  /// len) of fragment `fid`'s parent target has no_rc_seeds set. `fid` must
  /// hold the window's first seed. Local: the flags travel with the target.
  [[nodiscard]] bool window_no_rc_seeds(std::uint32_t fid, std::size_t begin,
                                        std::size_t len) const;

  /// Local (unaccounted) access for owners iterating their own data.
  [[nodiscard]] const Target& target_unsync(std::uint32_t gid) const;
  [[nodiscard]] const Fragment& fragment_unsync(std::uint32_t fid) const;

  /// Fraction of fragments still flagged single-copy (diagnostics).
  [[nodiscard]] double single_copy_fraction() const;

 private:
  [[nodiscard]] std::size_t target_local_index(std::uint32_t gid, int owner) const;

  Options opt_;
  int nranks_;
  std::vector<std::vector<Target>> targets_;          // per rank
  std::vector<std::vector<Fragment>> fragments_;      // per rank
  std::vector<std::uint32_t> target_start_;           // per rank prefix, size nranks+1
  std::vector<std::uint32_t> fragment_start_;
  std::uint32_t total_targets_ = 0;
  std::uint32_t total_fragments_ = 0;
  bool constructed_ = false;
};

}  // namespace mera::core
