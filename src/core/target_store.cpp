#include "core/target_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fragmenter.hpp"

namespace mera::core {

TargetStore::TargetStore(int nranks, Options opt)
    : opt_(opt),
      nranks_(nranks),
      targets_(static_cast<std::size_t>(nranks)),
      fragments_(static_cast<std::size_t>(nranks)) {
  if (opt_.seed_len < 1) throw std::invalid_argument("TargetStore: seed_len < 1");
  if (opt_.fragment_len < static_cast<std::size_t>(opt_.seed_len))
    throw std::invalid_argument("TargetStore: fragment_len < seed_len");
}

void TargetStore::add_local_targets(pgas::Rank& rank,
                                    std::vector<seq::SeqRecord> recs) {
  if (constructed_)
    throw std::logic_error("TargetStore: add after finish_construction");
  auto& mine = targets_[static_cast<std::size_t>(rank.id())];
  mine.reserve(mine.size() + recs.size());
  for (auto& r : recs) {
    Target t;
    t.name = std::move(r.name);
    t.seq = seq::PackedSeq(r.seq);  // contigs are N-free by construction
    mine.push_back(std::move(t));
  }
}

void TargetStore::finish_construction(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());

  // Build local fragments with k-1 overlap => disjoint seed sets whose union
  // is the target's seed set (Section IV-A; see core/fragmenter.hpp).
  auto& frags = fragments_[me];
  frags.clear();
  for (std::size_t li = 0; li < targets_[me].size(); ++li) {
    for (const FragmentSpan& s : fragment_spans(
             targets_[me][li].seq.size(), opt_.fragment_len, opt_.seed_len)) {
      frags.emplace_back(static_cast<std::uint32_t>(li),  // local; fixed below
                         static_cast<std::uint32_t>(s.offset),
                         static_cast<std::uint32_t>(s.length));
    }
  }

  rank.barrier();
  if (rank.id() == 0) {
    target_start_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
    fragment_start_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
    for (int r = 0; r < nranks_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      target_start_[ri + 1] =
          target_start_[ri] + static_cast<std::uint32_t>(targets_[ri].size());
      fragment_start_[ri + 1] =
          fragment_start_[ri] + static_cast<std::uint32_t>(fragments_[ri].size());
    }
    total_targets_ = target_start_[static_cast<std::size_t>(nranks_)];
    total_fragments_ = fragment_start_[static_cast<std::size_t>(nranks_)];
    constructed_ = true;
  }
  rank.barrier();

  // Rebase fragment parent ids from local to global target ids.
  const std::uint32_t tbase = target_start_[me];
  for (auto& f : fragments_[me]) f.parent_target += tbase;
  rank.barrier();
}

int TargetStore::owner_of_target(std::uint32_t gid) const noexcept {
  const auto it =
      std::upper_bound(target_start_.begin(), target_start_.end(), gid);
  return static_cast<int>(it - target_start_.begin()) - 1;
}

int TargetStore::owner_of_fragment(std::uint32_t fid) const noexcept {
  const auto it =
      std::upper_bound(fragment_start_.begin(), fragment_start_.end(), fid);
  return static_cast<int>(it - fragment_start_.begin()) - 1;
}

std::pair<std::uint32_t, std::uint32_t> TargetStore::local_target_range(
    int rank) const {
  const auto ri = static_cast<std::size_t>(rank);
  return {target_start_[ri], target_start_[ri + 1]};
}

std::pair<std::uint32_t, std::uint32_t> TargetStore::local_fragment_range(
    int rank) const {
  const auto ri = static_cast<std::size_t>(rank);
  return {fragment_start_[ri], fragment_start_[ri + 1]};
}

std::size_t TargetStore::target_local_index(std::uint32_t gid, int owner) const {
  return gid - target_start_[static_cast<std::size_t>(owner)];
}

const Target& TargetStore::fetch_target(pgas::Rank& rank,
                                        std::uint32_t gid) const {
  const int owner = owner_of_target(gid);
  const Target& t = targets_[static_cast<std::size_t>(owner)]
                            [target_local_index(gid, owner)];
  rank.charge_access(owner, t.seq.packed_bytes());
  return t;
}

std::size_t TargetStore::target_transfer_bytes(std::uint32_t gid) const {
  const int owner = owner_of_target(gid);
  return targets_[static_cast<std::size_t>(owner)]
                 [target_local_index(gid, owner)]
                     .seq.packed_bytes();
}

void TargetStore::clear_single_copy(pgas::Rank& rank, std::uint32_t fid) {
  const int owner = owner_of_fragment(fid);
  rank.charge_access(owner, sizeof(bool));
  fragments_[static_cast<std::size_t>(owner)]
            [fid - fragment_start_[static_cast<std::size_t>(owner)]]
                .single_copy_seeds.store(false, std::memory_order_relaxed);
}

void TargetStore::clear_no_rc_seeds(pgas::Rank& rank, std::uint32_t fid) {
  const int owner = owner_of_fragment(fid);
  rank.charge_access(owner, sizeof(bool));
  fragments_[static_cast<std::size_t>(owner)]
            [fid - fragment_start_[static_cast<std::size_t>(owner)]]
                .no_rc_seeds.store(false, std::memory_order_relaxed);
}

bool TargetStore::window_no_rc_seeds(std::uint32_t fid, std::size_t begin,
                                     std::size_t len) const {
  // A target's fragments have consecutive ids in offset order, with
  // disjoint seed-start ranges; `fid` holds the window's first seed, so the
  // window's other seeds lie in the fragments that follow it.
  const std::size_t last_seed =
      begin + len - static_cast<std::size_t>(opt_.seed_len);
  const std::uint32_t parent = fragment_unsync(fid).parent_target;
  for (std::uint32_t id = fid; id < total_fragments_; ++id) {
    const Fragment& f = fragment_unsync(id);
    if (f.parent_target != parent || f.parent_offset > last_seed) break;
    if (!f.no_rc_seeds.load(std::memory_order_relaxed)) return false;
  }
  return true;
}

const Target& TargetStore::target_unsync(std::uint32_t gid) const {
  const int owner = owner_of_target(gid);
  return targets_[static_cast<std::size_t>(owner)]
                 [target_local_index(gid, owner)];
}

const Fragment& TargetStore::fragment_unsync(std::uint32_t fid) const {
  const int owner = owner_of_fragment(fid);
  return fragments_[static_cast<std::size_t>(owner)]
                   [fid - fragment_start_[static_cast<std::size_t>(owner)]];
}

double TargetStore::single_copy_fraction() const {
  std::size_t sc = 0, total = 0;
  for (const auto& per_rank : fragments_) {
    total += per_rank.size();
    for (const auto& f : per_rank)
      sc += f.single_copy_seeds.load(std::memory_order_relaxed) ? 1u : 0u;
  }
  return total == 0 ? 0.0 : static_cast<double>(sc) / static_cast<double>(total);
}

}  // namespace mera::core
