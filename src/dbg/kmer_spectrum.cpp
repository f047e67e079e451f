#include "dbg/kmer_spectrum.hpp"

#include <stdexcept>

#include "seq/dna.hpp"

namespace mera::dbg {

KmerSpectrum::KmerSpectrum(const pgas::Topology& topo, Options opt)
    : opt_(opt),
      nranks_(topo.nranks()),
      tables_(static_cast<std::size_t>(topo.nranks())),
      table_locks_(static_cast<std::size_t>(topo.nranks())),
      stacks_(static_cast<std::size_t>(topo.nranks())),
      pending_counts_(static_cast<std::size_t>(topo.nranks()),
                      std::vector<std::uint64_t>(
                          static_cast<std::size_t>(topo.nranks()), 0)),
      aggregators_(static_cast<std::size_t>(topo.nranks())) {
  if (opt_.k < 2 || opt_.k > seq::kMaxSeedLen)
    throw std::invalid_argument("KmerSpectrum: k out of range [2,64]");
  for (int r = 0; r < nranks_; ++r) incoming_.emplace_back(r, 0);
}

template <typename Fn>
void KmerSpectrum::for_each_read_kmer(std::string_view read, Fn&& fn) const {
  const int k = opt_.k;
  seq::for_each_stranded_seed(read, k, [&](std::size_t off,
                                            const seq::StrandedKmer& m) {
    // Neighbour bases in read orientation (4 = none / N).
    std::uint8_t lb = 4, rb = 4;
    if (off > 0) {
      const auto c = seq::encode_base(read[off - 1]);
      lb = c == seq::kInvalidBase ? 4 : c;
    }
    if (off + static_cast<std::size_t>(k) < read.size()) {
      const auto c = seq::encode_base(read[off + static_cast<std::size_t>(k)]);
      rb = c == seq::kInvalidBase ? 4 : c;
    }
    if (m.flipped()) {
      // Canonical orientation is the reverse complement: swap + complement
      // the extensions.
      const std::uint8_t new_left =
          rb == 4 ? std::uint8_t{4} : seq::complement_code(rb);
      const std::uint8_t new_right =
          lb == 4 ? std::uint8_t{4} : seq::complement_code(lb);
      fn(m.rc, new_left, new_right);
    } else {
      fn(m.fwd, lb, rb);
    }
  });
}

void KmerSpectrum::count_read(pgas::Rank& rank, std::string_view read) {
  auto& mine = pending_counts_[static_cast<std::size_t>(rank.id())];
  for_each_read_kmer(read, [&](const seq::Kmer& c, std::uint8_t, std::uint8_t) {
    ++mine[static_cast<std::size_t>(owner_of(c))];
  });
}

void KmerSpectrum::finish_count(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());
  for (int owner = 0; owner < nranks_; ++owner) {
    const std::uint64_t c = pending_counts_[me][static_cast<std::size_t>(owner)];
    if (c != 0)
      rank.atomic_fetch_add(incoming_[static_cast<std::size_t>(owner)], c);
  }
  rank.barrier();
  if (opt_.aggregating_stores) {
    stacks_[me].allocate(rank.id(), incoming_[me].load_unsync());
    aggregators_[me] = std::make_unique<dht::AggregatingStore<Entry>>(
        nranks_, opt_.buffer_S, stacks_);
  }
  tables_[me].reserve(incoming_[me].load_unsync() / 2);
  rank.barrier();
}

void KmerSpectrum::apply_entry(int owner, const Entry& e) {
  KmerInfo& info = tables_[static_cast<std::size_t>(owner)][e.kmer];
  ++info.count;
  ++info.left[e.left];
  ++info.right[e.right];
}

void KmerSpectrum::insert_read(pgas::Rank& rank, std::string_view read) {
  for_each_read_kmer(read, [&](const seq::Kmer& c, std::uint8_t lb,
                               std::uint8_t rb) {
    const int owner = owner_of(c);
    const Entry e{c, lb, rb};
    if (opt_.aggregating_stores) {
      aggregators_[static_cast<std::size_t>(rank.id())]->push(rank, owner, e);
    } else {
      // Naive mode: one fine-grained remote access + lock per k-mer.
      rank.charge_access(owner, sizeof(Entry));
      const std::scoped_lock lk(table_locks_[static_cast<std::size_t>(owner)]);
      apply_entry(owner, e);
    }
  });
}

void KmerSpectrum::finish_insert(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());
  if (opt_.aggregating_stores) {
    aggregators_[me]->flush_all(rank);
    rank.barrier();
    for (const Entry& e : stacks_[me].take()) {
      apply_entry(rank.id(), e);
      rank.charge_access(rank.id(), sizeof(Entry));
    }
  }
  rank.barrier();
}

const KmerInfo* KmerSpectrum::lookup(pgas::Rank& rank,
                                     const seq::Kmer& canonical) const {
  const int owner = owner_of(canonical);
  const auto& table = tables_[static_cast<std::size_t>(owner)];
  const auto it = table.find(canonical);
  rank.charge_access(owner, sizeof(KmerInfo));
  return it == table.end() ? nullptr : &it->second;
}

std::size_t KmerSpectrum::total_distinct() const {
  std::size_t n = 0;
  for (const auto& t : tables_) n += t.size();
  return n;
}

}  // namespace mera::dbg
