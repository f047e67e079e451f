#include "dht/seed_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <ranges>
#include <span>
#include <stdexcept>
#include <tuple>

namespace mera::dht {

namespace {

/// Canonical within-run order: a fixed pseudo-random permutation of targets
/// (splitmix64 finalizer), then position, then fragment as the total tie-break.
auto hit_order(const SeedHit& h) noexcept {
  std::uint64_t x = h.target_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return std::tuple{x ^ (x >> 31), h.t_pos, h.fragment_id};
}

/// A hash's two filter bits, picked by the two 4-bit groups below its bucket
/// bits. At ~0.9 runs per bucket ~2% of absent seeds pass them; an 8-bit
/// filter would pass ~7% with two bits and ~10% with one.
std::uint16_t filter_bits(std::uint64_t hash, unsigned shift) noexcept {
  return static_cast<std::uint16_t>((1u << ((hash >> (shift - 4)) & 15u)) |
                                    (1u << ((hash >> (shift - 8)) & 15u)));
}

}  // namespace

SeedIndex::SeedIndex(const pgas::Topology& topo, Options opt)
    : opt_(opt),
      nranks_(topo.nranks()),
      stores_(static_cast<std::size_t>(topo.nranks())),
      stacks_(static_cast<std::size_t>(topo.nranks())),
      pending_counts_(static_cast<std::size_t>(topo.nranks()),
                      std::vector<std::uint64_t>(
                          static_cast<std::size_t>(topo.nranks()), 0)),
      aggregators_(static_cast<std::size_t>(topo.nranks())) {
  if (opt_.k < 1 || opt_.k > seq::kMaxSeedLen)
    throw std::invalid_argument("SeedIndex: k out of range [1,64]");
  if (opt_.buffer_S == 0)
    throw std::invalid_argument("SeedIndex: buffer_S must be >= 1");
  for (int r = 0; r < nranks_; ++r) incoming_.emplace_back(r, 0);
}

void SeedIndex::count_seed(pgas::Rank& rank, const seq::Kmer& seed) {
  ++pending_counts_[static_cast<std::size_t>(rank.id())]
                   [static_cast<std::size_t>(owner_of(seed))];
}

void SeedIndex::finish_count(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());
  for (int owner = 0; owner < nranks_; ++owner) {
    const std::uint64_t c = pending_counts_[me][static_cast<std::size_t>(owner)];
    if (c != 0)
      rank.atomic_fetch_add(incoming_[static_cast<std::size_t>(owner)], c);
  }
  rank.barrier();

  stacks_[me].allocate(rank.id(), incoming_[me].load_unsync());
  if (opt_.aggregating_stores)
    aggregators_[me] = std::make_unique<AggregatingStore<SeedEntry>>(
        nranks_, opt_.buffer_S, stacks_);
  rank.barrier();
}

void SeedIndex::insert(pgas::Rank& rank, const seq::Kmer& seed, SeedHit hit) {
  const int owner = owner_of(seed);
  const SeedEntry e{seed, hit};
  if (opt_.aggregating_stores) {
    aggregators_[static_cast<std::size_t>(rank.id())]->push(rank, owner, e);
  } else {
    // One remote slot reservation + one fine-grained entry store: the
    // per-seed cost the aggregating optimization divides by S.
    stacks_[static_cast<std::size_t>(owner)].push_batch(rank, {&e, 1});
  }
}

void SeedIndex::finish_insert(pgas::Rank& rank) {
  const auto me = static_cast<std::size_t>(rank.id());
  if (opt_.aggregating_stores) {
    aggregators_[me]->flush_all(rank);
    aggregators_[me].reset();
  }
  rank.barrier();
  RankStore& st = stores_[me];
  st.entries = stacks_[me].take();
  if (opt_.aggregating_stores) {
    // Draining the local-shared stack takes no communication and no locks
    // (the lock-free payoff of Figure 4); tally it as local work.
    for (std::size_t i = 0; i < st.entries.size(); ++i)
      rank.charge_access(rank.id(), sizeof(SeedEntry));
  }
  build_directory(st);
  rank.barrier();
}

void SeedIndex::build_directory(RankStore& st) {
  std::vector<SeedEntry>& e = st.entries;
  // Stash each entry's top 32 hash bits in its still unused run field: they
  // pick its part and decide almost every comparison of the sort below.
  std::array<std::size_t, 257> part{};
  for (SeedEntry& x : e) {
    x.run = static_cast<std::uint32_t>(x.seed.mixed_hash() >> 32);
    ++part[(x.run >> 24) + 1];
  }
  for (std::size_t p = 0; p < 256; ++p) part[p + 1] += part[p];

  // In-place 256-way partition on the top hash byte: each entry swaps with
  // its part's write head (with itself if it is there); 256 heads stay hot.
  auto head = part;
  for (std::size_t p = 0; p < 256; ++p)
    for (std::size_t i = head[p]; i != part[p + 1]; i = head[p])
      std::swap(e[i], e[head[e[i].run >> 24]++]);

  // Canonical order within each part: (mixed_hash, seed words, hit order).
  const auto less = [](const SeedEntry& x, const SeedEntry& y) {
    if (x.run != y.run) return x.run < y.run;
    if (x.seed.words() == y.seed.words())
      return hit_order(x.hit) < hit_order(y.hit);
    const std::uint64_t hx = x.seed.mixed_hash(), hy = y.seed.mixed_hash();
    return hx != hy ? hx < hy : x.seed.words() < y.seed.words();
  };
  for (std::size_t p = 0; p < 256; ++p)
    std::sort(e.begin() + static_cast<std::ptrdiff_t>(part[p]),
              e.begin() + static_cast<std::ptrdiff_t>(part[p + 1]), less);

  // Each run's length goes in its first entry, 0 in the others.
  for (std::size_t i = 0; i < e.size(); ++st.distinct) {
    std::size_t j = i + 1;
    while (j < e.size() && e[j].seed.words() == e[i].seed.words())
      e[j++].run = 0;
    e[i].run = static_cast<std::uint32_t>(j - i);
    i = j;
  }

  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(st.distinct, 16));
  st.shift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  st.dir.assign(buckets + 1, static_cast<std::uint32_t>(e.size()));
  st.filter.assign(buckets, 0);
  std::size_t next = 0;  // first bucket whose start is not yet set
  for (std::size_t i = 0; i < e.size(); i += e[i].run) {
    const std::uint64_t h = e[i].seed.mixed_hash();
    const std::size_t b = h >> st.shift;
    while (next <= b) st.dir[next++] = static_cast<std::uint32_t>(i);
    st.filter[b] |= filter_bits(h, st.shift);
  }
}

std::size_t SeedIndex::lookup(pgas::Rank& rank, const seq::Kmer& seed,
                              std::size_t max_hits,
                              std::vector<SeedHit>& out) const {
  const int owner = owner_of(seed);
  const RankStore& st = stores_[static_cast<std::size_t>(owner)];
  std::size_t total = 0;
  std::size_t appended = 0;
  if (seed.k() == opt_.k) {
    const std::uint64_t h = seed.mixed_hash();
    const std::size_t b = h >> st.shift;
    const std::uint16_t bits = filter_bits(h, st.shift);
    if ((st.filter[b] & bits) == bits) {
      for (std::uint32_t i = st.dir[b]; i != st.dir[b + 1];
           i += st.entries[i].run) {
        if (st.entries[i].seed.words() != seed.words()) continue;
        total = st.entries[i].run;
        appended = std::min(total, max_hits);
        const auto hits = std::span(&st.entries[i], appended) |
                          std::views::transform(&SeedEntry::hit);
        out.insert(out.end(), hits.begin(), hits.end());
        break;
      }
    }
  }
  rank.charge_access(owner, lookup_transfer_bytes(appended));
  return total;
}

std::size_t SeedIndex::local_distinct_seeds(int rank) const {
  return stores_[static_cast<std::size_t>(rank)].distinct;
}

std::size_t SeedIndex::total_entries() const {
  std::size_t n = 0;
  for (const RankStore& st : stores_) n += st.entries.size();
  return n;
}

}  // namespace mera::dht
