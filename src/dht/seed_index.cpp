#include "dht/seed_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

namespace mera::dht {

namespace {

std::uint8_t slot_tag(std::uint64_t hash) noexcept {
  return static_cast<std::uint8_t>(0x80u | (hash >> 57));
}

/// Canonical within-run order: a fixed pseudo-random permutation of targets
/// (splitmix64 finalizer), then position, then fragment as the total tie-break.
auto hit_order(const SeedHit& h) noexcept {
  std::uint64_t x = h.target_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return std::tuple{x ^ (x >> 31), h.t_pos, h.fragment_id};
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
  if (opt_.aggregating_stores) {
    // Draining the local-shared stack takes no communication and no locks
    // (the lock-free payoff of Figure 4); tally it as local work.
    const std::size_t landed = stacks_[me].drain_view().size();
    for (std::size_t i = 0; i < landed; ++i)
      rank.charge_access(rank.id(), sizeof(SeedEntry));
  }
  build_runs(stores_[me], stacks_[me]);
  rank.barrier();
}

void SeedIndex::build_runs(RankStore& st,
                           LocalSharedStack<SeedEntry>& stack) const {
  const auto entries = stack.drain_view();
  // Sort 16-byte (hash, index) keys rather than the entries themselves;
  // equal hashes fall back to the seed words, then the canonical hit order.
  struct Key {
    std::uint64_t hash;
    std::uint64_t idx;
  };
  std::vector<Key> keys(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    keys[i] = {entries[i].seed.mixed_hash(), i};
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    const SeedEntry& x = entries[a.idx];
    const SeedEntry& y = entries[b.idx];
    if (x.seed.words() != y.seed.words())
      return x.seed.words() < y.seed.words();
    return hit_order(x.hit) < hit_order(y.hit);
  });

  // Copy out the hits and one dense slot per run, then free the keys and
  // the landed entries before allocating the table, so that entries, keys
  // and table are never all live at once (the build's peak memory).
  const auto new_run = [&](std::size_t i) {
    return i == 0 || keys[i].hash != keys[i - 1].hash ||
           entries[keys[i].idx].seed.words() !=
               entries[keys[i - 1].idx].seed.words();
  };
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) distinct += new_run(i);
  std::vector<Slot> runs;
  runs.reserve(distinct);
  st.hits.resize(entries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const SeedEntry& e = entries[keys[i].idx];
    st.hits[i] = e.hit;
    if (new_run(i))
      runs.push_back({e.seed.words(), static_cast<std::uint32_t>(i), 0});
    ++runs.back().count;
  }
  keys = std::vector<Key>();
  stack.release();

  // Smallest power of two (>= 16) keeping the load factor <= 0.75.
  const std::uint64_t cap =
      std::bit_ceil(std::max<std::uint64_t>((runs.size() * 4 + 2) / 3, 16));
  st.slots.assign(cap, Slot{});
  st.tags.assign(cap, 0);
  st.mask = cap - 1;
  for (const Slot& run : runs) {
    const std::uint64_t h =
        seq::Kmer::from_words(opt_.k, run.words).value().mixed_hash();
    std::uint64_t i = h & st.mask;
    while (st.tags[i] != 0) i = (i + 1) & st.mask;
    st.tags[i] = slot_tag(h);
    st.slots[i] = run;
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
    const std::uint8_t tag = slot_tag(h);
    for (std::uint64_t i = h & st.mask; st.tags[i] != 0;
         i = (i + 1) & st.mask) {
      if (st.tags[i] != tag || st.slots[i].words != seed.words()) continue;
      const Slot& s = st.slots[i];
      total = s.count;
      appended = std::min<std::size_t>(total, max_hits);
      out.insert(out.end(), st.hits.begin() + s.start,
                 st.hits.begin() + s.start + appended);
      break;
    }
  }
  rank.charge_access(owner, lookup_transfer_bytes(appended));
  return total;
}

std::size_t SeedIndex::local_distinct_seeds(int rank) const {
  const auto& slots = stores_[static_cast<std::size_t>(rank)].slots;
  return static_cast<std::size_t>(std::ranges::count_if(
      slots, [](const Slot& s) { return s.count != 0; }));
}

std::size_t SeedIndex::total_entries() const {
  std::size_t n = 0;
  for (const RankStore& st : stores_) n += st.hits.size();
  return n;
}

}  // namespace mera::dht
