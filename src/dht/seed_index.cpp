#include "dht/seed_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <ranges>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

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

void SeedIndex::count_seed(pgas::Rank& rank, const seq::StrandedKmer& seed) {
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

void SeedIndex::insert(pgas::Rank& rank, const seq::StrandedKmer& seed,
                       SeedHit hit) {
  const seq::Kmer key = seed.canonical();
  const int owner = owner_of_key(key);
  const SeedEntry e{key.words(), hit, 0, seed.flipped() ? 1u : 0u};
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
  build_directory(st, opt_.k);
  rank.barrier();
}

void SeedIndex::build_directory(RankStore& st, int k) {
  std::vector<SeedEntry>& e = st.entries;
  const auto hash = [k](const SeedEntry& x) {
    return seq::Kmer::mixed_hash(x.key, k);
  };
  // Stash each entry's top 32 hash bits in its still unused run field: they
  // pick its part and decide almost every comparison of the sort below.
  std::array<std::size_t, 257> part{};
  for (SeedEntry& x : e) {
    x.run = static_cast<std::uint32_t>(hash(x) >> 32);
    ++part[(x.run >> 24) + 1];
  }
  for (std::size_t p = 0; p < 256; ++p) part[p + 1] += part[p];

  // In-place 256-way partition on the top hash byte: each entry swaps with
  // its part's write head (with itself if it is there); 256 heads stay hot.
  auto head = part;
  for (std::size_t p = 0; p < 256; ++p)
    for (std::size_t i = head[p]; i != part[p + 1]; i = head[p])
      std::swap(e[i], e[head[e[i].run >> 24]++]);

  // Canonical order within each part: (mixed_hash, key words, subrun, hit
  // order).
  const auto less = [&hash](const SeedEntry& x, const SeedEntry& y) {
    if (x.run != y.run) return x.run < y.run;
    if (x.key == y.key)
      return std::tuple{x.split, hit_order(x.hit)} <
             std::tuple{y.split, hit_order(y.hit)};
    const std::uint64_t hx = hash(x), hy = hash(y);
    return hx != hy ? hx < hy : x.key < y.key;
  };
  for (std::size_t p = 0; p < 256; ++p)
    std::sort(e.begin() + static_cast<std::ptrdiff_t>(part[p]),
              e.begin() + static_cast<std::ptrdiff_t>(part[p + 1]), less);

  // Each run's head holds its length and its first subrun's length; the
  // other entries' run fields are 0.
  for (std::size_t i = 0; i < e.size(); ++st.distinct) {
    std::size_t j = i + 1;
    while (j < e.size() && e[j].key == e[i].key) e[j++].run = 0;
    std::size_t first = i;
    while (first < j && e[first].split == 0) ++first;
    e[i].run = static_cast<std::uint32_t>(j - i);
    e[i].split = static_cast<std::uint32_t>(first - i);
    i = j;
  }

  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(st.distinct, 16));
  st.shift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  st.dir.assign(buckets + 1, static_cast<std::uint32_t>(e.size()));
  st.filter.assign(buckets, 0);
  std::size_t next = 0;  // first bucket whose start is not yet set
  for (std::size_t i = 0; i < e.size(); i += e[i].run) {
    const std::uint64_t h = hash(e[i]);
    const std::size_t b = h >> st.shift;
    while (next <= b) st.dir[next++] = static_cast<std::uint32_t>(i);
    st.filter[b] |= filter_bits(h, st.shift);
  }
}

bool SeedIndex::palindrome(const std::array<std::uint64_t, 2>& key) const {
  const auto m = seq::Kmer::from_words(opt_.k, key);
  return m && m->reverse_complement() == *m;
}

void SeedIndex::prefetch_bucket(const Probe& p) const noexcept {
  const RankStore& st = stores_[static_cast<std::size_t>(p.owner)];
  const std::size_t b = p.hash >> st.shift;
  __builtin_prefetch(st.filter.data() + b);
  __builtin_prefetch(st.dir.data() + b);
  __builtin_prefetch(st.dir.data() + b + 1);
}

void SeedIndex::prefetch_run(const Probe& p) const noexcept {
  const RankStore& st = stores_[static_cast<std::size_t>(p.owner)];
  const std::size_t b = p.hash >> st.shift;
  const std::uint16_t bits = filter_bits(p.hash, st.shift);
  if ((st.filter[b] & bits) != bits || st.dir[b] == st.dir[b + 1]) return;
  // 40-byte entries: slots start at bytes 0, 40, 16, 56, 32, 8, 48 and 24 of
  // a line, so 4 of every 8 end on the next line.
  const auto* head = reinterpret_cast<const char*>(st.entries.data() + st.dir[b]);
  __builtin_prefetch(head);
  __builtin_prefetch(head + sizeof(SeedEntry) - 1);
}

std::array<std::size_t, 2> SeedIndex::lookup(pgas::Rank& rank,
                                             const seq::StrandedKmer& seed,
                                             const Probe& p,
                                             std::size_t max_hits,
                                             std::vector<SeedHit>& out,
                                             std::vector<SeedHit>* rc_out) const {
  const RankStore& st = stores_[static_cast<std::size_t>(p.owner)];
  // The run's two subruns as [begin, end) entry offsets: sides[0] holds the
  // hits of seed.fwd, sides[1] those of seed.rc.
  std::array<std::pair<std::uint32_t, std::uint32_t>, 2> sides{};
  if (seed.fwd.k() == opt_.k) {
    const std::size_t b = p.hash >> st.shift;
    const std::uint16_t bits = filter_bits(p.hash, st.shift);
    if ((st.filter[b] & bits) == bits) {
      const seq::Kmer key = seed.canonical();
      for (std::uint32_t i = st.dir[b]; i != st.dir[b + 1];
           i += st.entries[i].run) {
        const SeedEntry& head = st.entries[i];
        if (head.key != key.words()) continue;
        // A palindrome's one subrun is both sides. Selects, not branches:
        // whether seed.fwd is the canonical form is a coin flip.
        const std::uint32_t mid = i + head.split, end = i + head.run;
        const bool flip = seed.flipped(), both = flip || seed.palindrome();
        sides[0] = {flip ? mid : i, both ? end : mid};
        sides[1] = {both ? i : mid, flip ? mid : end};
        break;
      }
    }
  }
  const std::array<std::size_t, 2> total{sides[0].second - sides[0].first,
                                         sides[1].second - sides[1].first};
  std::size_t copied = 0;
  const auto copy = [&](std::size_t side, std::vector<SeedHit>& to) {
    const std::size_t n = std::min(total[side], max_hits);
    const auto hits = std::span(&st.entries[sides[side].first], n) |
                      std::views::transform(&SeedEntry::hit);
    to.insert(to.end(), hits.begin(), hits.end());
    copied += n;
  };
  if (total[0] != 0) copy(0, out);
  if (rc_out != nullptr && total[1] != 0) {
    if (seed.palindrome()) {
      // The same subrun: it travels once.
      rc_out->insert(rc_out->end(), out.end() - static_cast<std::ptrdiff_t>(
                                                    std::min(total[0], max_hits)),
                     out.end());
    } else {
      copy(1, *rc_out);
    }
  }
  rank.charge_access(p.owner, lookup_transfer_bytes(copied));
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
