#include "cache/seed_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "cache/cache_snapshot.hpp"

namespace mera::cache {

namespace {

/// Clock probes per admission attempt: bounds insert() cost while still
/// decaying hot entries fast enough that nothing is protected forever.
constexpr std::size_t kAdmissionProbes = 8;

/// Node capacity per stripe before a node splits again, and the stripe cap.
constexpr std::size_t kEntriesPerStripe = 4096;
constexpr std::size_t kMaxStripes = 16;

std::size_t stripe_count(std::size_t capacity) {
  return std::bit_floor(
      std::clamp<std::size_t>(capacity / kEntriesPerStripe, 1, kMaxStripes));
}

/// Size class of an arena hit list of n >= 2 hits: blocks of 2^class hits.
unsigned size_class(std::uint32_t n) { return std::bit_width(n - 1); }

}  // namespace

// --- hit arena ---------------------------------------------------------------

std::uint32_t SeedIndexCache::HitArena::store(const dht::SeedHit* hits,
                                              std::uint32_t n) {
  const unsigned cls = size_class(n);
  std::uint32_t block = free_[cls];
  if (block != kEmpty) {
    free_[cls] = slab_[block].fragment_id;
  } else {
    const std::uint64_t size = std::uint64_t{1} << cls;
    if (slab_.size() + size > kEmpty)
      throw std::length_error("seed cache: hit arena exceeds 2^32 hits");
    block = static_cast<std::uint32_t>(slab_.size());
    slab_.resize(slab_.size() + size);
  }
  std::copy_n(hits, n, slab_.begin() + block);
  return block;
}

void SeedIndexCache::HitArena::release(std::uint32_t block,
                                       std::uint32_t n) noexcept {
  const unsigned cls = size_class(n);
  slab_[block].fragment_id = free_[cls];
  free_[cls] = block;
}

// --- one stripe's clock ring and index ---------------------------------------

std::uint32_t SeedIndexCache::Clock::find(const seq::Kmer& seed,
                                          std::uint32_t hash_lo) const noexcept {
  if (index.empty()) return kEmpty;
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = hash_lo & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = index[i];
    if (slot == kEmpty) return kEmpty;
    const Entry& e = ring[slot];
    if (e.hash_lo == hash_lo && e.seed == seed) return slot;
  }
}

void SeedIndexCache::Clock::fill(Entry& e, const seq::Kmer& seed,
                                 std::uint32_t hash_lo,
                                 const dht::SeedHit* hits, std::uint32_t nhits,
                                 std::uint32_t total, std::uint32_t use_count) {
  e.seed = seed;
  e.hash_lo = hash_lo;
  e.total = total;
  e.use_count = use_count;
  e.nhits = nhits;
  if (nhits == 1) e.hit = hits[0];
  if (nhits > 1) e.block = arena.store(hits, nhits);
}

void SeedIndexCache::Clock::append(const seq::Kmer& seed,
                                   std::uint32_t hash_lo,
                                   const dht::SeedHit* hits,
                                   std::uint32_t nhits, std::uint32_t total,
                                   std::uint32_t use_count) {
  Entry e;
  fill(e, seed, hash_lo, hits, nhits, total, use_count);
  ring.push_back(e);
  // Keep the index at most half full; it doubles with the entry count, so
  // a cache never pays for a table sized to a capacity it has not reached.
  if (ring.size() * 2 > index.size())
    rehash(std::max<std::size_t>(16, index.size() * 2));
  else
    index_insert(hash_lo, static_cast<std::uint32_t>(ring.size() - 1));
}

void SeedIndexCache::Clock::overwrite(std::size_t slot, const seq::Kmer& seed,
                                      std::uint32_t hash_lo,
                                      const dht::SeedHit* hits,
                                      std::uint32_t nhits,
                                      std::uint32_t total) {
  Entry& e = ring[slot];
  index_erase(static_cast<std::uint32_t>(slot));
  if (e.nhits > 1) arena.release(e.block, e.nhits);
  fill(e, seed, hash_lo, hits, nhits, total, 0);
  index_insert(hash_lo, static_cast<std::uint32_t>(slot));
}

void SeedIndexCache::Clock::index_insert(std::uint32_t hash_lo,
                                         std::uint32_t slot) noexcept {
  const std::size_t mask = index.size() - 1;
  std::size_t i = hash_lo & mask;
  while (index[i] != kEmpty) i = (i + 1) & mask;
  index[i] = slot;
}

void SeedIndexCache::Clock::index_erase(std::uint32_t slot) noexcept {
  const std::size_t mask = index.size() - 1;
  std::size_t hole = ring[slot].hash_lo & mask;
  while (index[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift delete: pull each later member of the probe run into the
  // hole unless that would move it before its home cell.
  for (std::size_t j = (hole + 1) & mask; index[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = ring[index[j]].hash_lo & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = kEmpty;
}

void SeedIndexCache::Clock::rehash(std::size_t size) {
  index.assign(size, kEmpty);
  for (std::size_t slot = 0; slot < ring.size(); ++slot)
    index_insert(ring[slot].hash_lo, static_cast<std::uint32_t>(slot));
}

// --- the cache ---------------------------------------------------------------

SeedIndexCache::SeedIndexCache(const pgas::Topology& topo, Options opt)
    : capacity_(opt.capacity_per_node),
      admission_(opt.eviction_aware_admission),
      nstripes_(stripe_count(capacity_)),
      stripe_shift_(32 - static_cast<unsigned>(std::countr_zero(nstripes_))),
      stripes_(static_cast<std::size_t>(topo.nnodes()) * nstripes_) {
  // Ring slots are u32 index cells.
  if (capacity_ / nstripes_ >= kEmpty)
    throw std::length_error("seed cache: capacity_per_node " +
                            std::to_string(capacity_) + " is too large");
  for (std::size_t i = 0; i < stripes_.size(); ++i)
    stripes_[i].capacity = capacity_ / nstripes_ +
                           (i % nstripes_ < capacity_ % nstripes_ ? 1 : 0);
}

bool SeedIndexCache::lookup(int node, const seq::Kmer& seed,
                            std::size_t max_hits,
                            std::vector<dht::SeedHit>& out,
                            std::size_t& total) {
  const std::uint64_t hash = seed.mixed_hash();
  Stripe& st = stripe(node, hash);
  const std::scoped_lock lk(st.mu);
  const std::uint32_t slot =
      st.clock.find(seed, static_cast<std::uint32_t>(hash));
  if (slot == kEmpty) {
    ++st.counters.misses;
    return false;
  }
  ++st.counters.hits;
  Entry& e = st.clock.ring[slot];
  ++e.use_count;
  total = e.total;
  const dht::SeedHit* hits = st.clock.hits_of(e);
  out.insert(out.end(), hits, hits + std::min<std::size_t>(max_hits, e.nhits));
  return true;
}

void SeedIndexCache::insert(int node, const seq::Kmer& seed,
                            const std::vector<dht::SeedHit>& hits,
                            std::size_t total) {
  if (capacity_ == 0) return;
  const std::uint64_t hash = seed.mixed_hash();
  const auto hash_lo = static_cast<std::uint32_t>(hash);
  const auto nhits = static_cast<std::uint32_t>(hits.size());
  const auto total32 = static_cast<std::uint32_t>(total);
  Stripe& st = stripe(node, hash);
  const std::scoped_lock lk(st.mu);
  Clock& c = st.clock;
  if (c.find(seed, hash_lo) != kEmpty) return;
  if (c.ring.size() < st.capacity) {
    c.append(seed, hash_lo, hits.data(), nhits, total32, 0);
    ++st.counters.insertions;
    return;
  }
  const auto advance = [&c] {
    if (++c.cursor == c.ring.size()) c.cursor = 0;
  };
  if (admission_) {
    // Eviction-aware admission: the newcomer has no recorded hits, so it
    // may only displace an entry that is just as cold. Probe a few slots
    // under the clock hand, halving each survivor's hit count; if every
    // probed entry is still warmer, refuse the insert.
    std::size_t probes = std::min(kAdmissionProbes, c.ring.size());
    for (; probes > 0 && c.ring[c.cursor].use_count != 0; --probes) {
      c.ring[c.cursor].use_count /= 2;
      advance();
    }
    if (probes == 0) {
      ++st.counters.admission_rejects;
      return;
    }
  }
  // Clock eviction: overwrite the entry under the cursor in place.
  c.overwrite(c.cursor, seed, hash_lo, hits.data(), nhits, total32);
  advance();
  ++st.counters.evictions;
  ++st.counters.insertions;
}

CacheCounters SeedIndexCache::counters() const {
  CacheCounters c;
  for (const auto& st : stripes_) {
    const std::scoped_lock lk(st.mu);
    c += st.counters;
  }
  return c;
}

std::size_t SeedIndexCache::entries() const {
  std::size_t n = 0;
  for (const auto& st : stripes_) {
    const std::scoped_lock lk(st.mu);
    n += st.clock.ring.size();
  }
  return n;
}

// --- snapshot serialization --------------------------------------------------
//
// Layout (ring order preserves each stripe's clock eviction schedule):
//   nnodes u64
//   per node: counters 5 x u64 (summed over stripes) | nstripes u64
//     per stripe: cursor u64 | nentries u64
//       per entry: k u32 | kmer 2 x u64 | use_count u32 | total u32
//                  | nhits u32 | nhits x (3 x u32)

void SeedIndexCache::save(std::ostream& os) const {
  using snapio::put;
  const std::size_t nnodes = stripes_.size() / nstripes_;
  put<std::uint64_t>(os, nnodes);
  for (std::size_t node = 0; node < nnodes; ++node) {
    const auto first = stripes_.begin() +
                       static_cast<std::ptrdiff_t>(node * nstripes_);
    const auto last = first + static_cast<std::ptrdiff_t>(nstripes_);
    // Hold the whole node (stripes locked in order, as load() does) so its
    // counters and entries come from one instant.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(nstripes_);
    CacheCounters c;
    for (auto st = first; st != last; ++st) {
      locks.emplace_back(st->mu);
      c += st->counters;
    }
    snapio::put_counters(os, c);
    put<std::uint64_t>(os, nstripes_);
    for (auto st = first; st != last; ++st) {
      const Clock& clock = st->clock;
      put<std::uint64_t>(os, clock.cursor);
      put<std::uint64_t>(os, clock.ring.size());
      for (const Entry& e : clock.ring) {
        put<std::uint32_t>(os, static_cast<std::uint32_t>(e.seed.k()));
        put<std::uint64_t>(os, e.seed.words()[0]);
        put<std::uint64_t>(os, e.seed.words()[1]);
        put<std::uint32_t>(os, e.use_count);
        put<std::uint32_t>(os, e.total);
        put<std::uint32_t>(os, e.nhits);
        const dht::SeedHit* hits = clock.hits_of(e);
        for (std::uint32_t h = 0; h < e.nhits; ++h) {
          put<std::uint32_t>(os, hits[h].fragment_id);
          put<std::uint32_t>(os, hits[h].target_id);
          put<std::uint32_t>(os, hits[h].t_pos);
        }
      }
    }
  }
}

void SeedIndexCache::load(std::istream& is) {
  using snapio::get;
  const std::size_t nnodes = stripes_.size() / nstripes_;
  const auto saved_nodes = get<std::uint64_t>(is);
  if (saved_nodes != nnodes)
    throw CacheSnapshotError(
        "cache snapshot: seed section has " + std::to_string(saved_nodes) +
        " node shards, this topology has " + std::to_string(nnodes));

  // One snapshot entry, with its clock age within the stripe it was saved
  // from as the fraction age / ring (age 0 = oldest, under the cursor).
  struct Loaded {
    seq::Kmer seed;
    std::uint64_t hash = 0;
    std::uint32_t use_count = 0;
    std::uint32_t total = 0;
    std::uint32_t nhits = 0;
    std::size_t first_hit = 0;  ///< into `hits`
    std::uint64_t age = 0;
    std::uint64_t ring = 0;
  };
  const auto younger = [](const Loaded* a, const Loaded* b) {
    return a->age * b->ring > b->age * a->ring;
  };

  for (std::size_t node = 0; node < nnodes; ++node) {
    const CacheCounters counters = snapio::get_counters(is);
    const auto saved_stripes = get<std::uint64_t>(is);
    if (saved_stripes == 0 || saved_stripes > kMaxStripes ||
        !std::has_single_bit(saved_stripes))
      throw CacheSnapshotError("cache snapshot: invalid seed stripe count " +
                               std::to_string(saved_stripes));

    std::vector<Loaded> loaded;
    std::vector<dht::SeedHit> hits;
    std::vector<std::size_t> stripe_begin{0};
    std::vector<std::size_t> cursors;
    for (std::uint64_t s = 0; s < saved_stripes; ++s) {
      const auto cursor = get<std::uint64_t>(is);
      const auto nentries = get<std::uint64_t>(is);
      if (nentries >= kEmpty)
        throw CacheSnapshotError("cache snapshot: seed stripe too large");
      if (nentries == 0 ? cursor != 0 : cursor >= nentries)
        throw CacheSnapshotError("cache snapshot: seed ring cursor out of range");
      for (std::uint64_t slot = 0; slot < nentries; ++slot) {
        const auto k = get<std::uint32_t>(is);
        std::array<std::uint64_t, 2> w;
        w[0] = get<std::uint64_t>(is);
        w[1] = get<std::uint64_t>(is);
        const auto seed = seq::Kmer::from_words(static_cast<int>(k), w);
        if (!seed)
          throw CacheSnapshotError("cache snapshot: invalid seed encoding");
        Loaded& e = loaded.emplace_back();
        e.seed = *seed;
        e.hash = seed->mixed_hash();
        e.use_count = get<std::uint32_t>(is);
        e.total = get<std::uint32_t>(is);
        e.nhits = get<std::uint32_t>(is);
        e.first_hit = hits.size();
        e.age = (slot + nentries - cursor) % nentries;
        e.ring = nentries;
        for (std::uint32_t h = 0; h < e.nhits; ++h) {
          dht::SeedHit hit;
          hit.fragment_id = get<std::uint32_t>(is);
          hit.target_id = get<std::uint32_t>(is);
          hit.t_pos = get<std::uint32_t>(is);
          hits.push_back(hit);
        }
      }
      stripe_begin.push_back(loaded.size());
      cursors.push_back(static_cast<std::size_t>(cursor));
    }

    // Stage outside the locks, then swap in: a node is either fully
    // replaced or (on a malformed snapshot) left exactly as it was.
    std::vector<Clock> staged(nstripes_);
    const auto capacity_of = [&](std::size_t s) {
      return stripes_[node * nstripes_ + s].capacity;
    };
    const auto admit = [&](Clock& clock, const Loaded& e) {
      const auto hash_lo = static_cast<std::uint32_t>(e.hash);
      if (clock.find(e.seed, hash_lo) != kEmpty)
        throw CacheSnapshotError("cache snapshot: duplicate seed entry");
      clock.append(e.seed, hash_lo, hits.data() + e.first_hit, e.nhits,
                   e.total, e.use_count);
    };
    // Re-admission when entries do not fit as saved: admit the warmest
    // (persisted hit count, age breaking ties toward the younger entry) into
    // their stripes until each is full — the eviction-aware admission policy
    // applied wholesale at load time. Survivors are laid out oldest-first
    // with the cursor at 0, which reproduces the saved clock schedule over
    // the surviving entries.
    std::uint64_t dropped = 0;
    const auto readmit = [&](std::size_t first, std::size_t last) {
      std::vector<const Loaded*> order;
      for (std::size_t i = first; i < last; ++i) order.push_back(&loaded[i]);
      std::stable_sort(order.begin(), order.end(),
                       [&](const Loaded* a, const Loaded* b) {
                         if (a->use_count != b->use_count)
                           return a->use_count > b->use_count;
                         return younger(a, b);
                       });
      std::vector<std::size_t> room(nstripes_);
      for (std::size_t s = 0; s < nstripes_; ++s) room[s] = capacity_of(s);
      std::vector<const Loaded*> kept;
      for (const Loaded* e : order) {
        std::size_t& r = room[stripe_of(e->hash)];
        if (r == 0) {
          ++dropped;
          continue;
        }
        --r;
        kept.push_back(e);
      }
      std::stable_sort(kept.begin(), kept.end(),
                       [&](const Loaded* a, const Loaded* b) {
                         return younger(b, a);
                       });
      for (const Loaded* e : kept) admit(staged[stripe_of(e->hash)], *e);
    };

    if (saved_stripes == nstripes_) {
      // Same striping: every stripe that fits is restored exactly.
      for (std::size_t s = 0; s < nstripes_; ++s) {
        const std::size_t first = stripe_begin[s], last = stripe_begin[s + 1];
        if (last - first > capacity_of(s)) {
          readmit(first, last);
          continue;
        }
        for (std::size_t i = first; i < last; ++i) {
          if (stripe_of(loaded[i].hash) != s)
            throw CacheSnapshotError(
                "cache snapshot: seed entry saved under the wrong stripe");
          admit(staged[s], loaded[i]);
        }
        staged[s].cursor = cursors[s];
      }
    } else {
      readmit(0, loaded.size());
    }

    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(nstripes_);
    for (std::size_t s = 0; s < nstripes_; ++s) {
      Stripe& st = stripes_[node * nstripes_ + s];
      locks.emplace_back(st.mu);
      st.clock = std::move(staged[s]);
      st.counters = CacheCounters{};
    }
    // Counters are persisted per node; stripe 0 carries them.
    Stripe& first = stripes_[node * nstripes_];
    first.counters = counters;
    first.counters.admission_rejects += dropped;
  }
}

}  // namespace mera::cache
