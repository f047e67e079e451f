#include "cache/seed_cache.hpp"

#include <sys/mman.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/cache_snapshot.hpp"
#include "obs/metrics.hpp"

namespace mera::cache {

namespace {

/// Hand probes per admission attempt: bounds insert() cost while still
/// decaying hot entries fast enough that nothing is protected forever.
constexpr std::size_t kAdmissionProbes = 8;

/// Hits per arena chunk (768 KB); larger blocks get a chunk of their own.
constexpr std::size_t kChunkHits = std::size_t{1} << 16;

/// Lock attempts before a waiter parks on the lock word.
constexpr int kSpins = 64;

/// Size class of an arena hit list of n >= 2 hits: blocks of 2^class hits.
unsigned size_class(std::uint32_t n) { return std::bit_width(n - 1); }

std::uint16_t tag_of(std::uint64_t hash) {
  return static_cast<std::uint16_t>(hash);
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void bump(std::atomic<std::uint64_t>& c) noexcept {
  c.fetch_add(1, std::memory_order_relaxed);
}

/// A set's lock word: 0 free, 1 held, 2 held with parked waiters. A locker
/// tries once outright (a cold header line is then fetched once, for
/// writing); a waiter spins briefly, then marks the word contended and parks
/// on it; an unlock that finds it contended wakes one waiter.
void lock_word(std::uint32_t& word) noexcept {
  std::atomic_ref<std::uint32_t> w(word);
  std::uint32_t free = 0;
  if (w.compare_exchange_strong(free, 1, std::memory_order_acquire,
                                std::memory_order_relaxed))
    return;
  for (int spin = 0; spin < kSpins; ++spin) {
    free = 0;
    if (w.load(std::memory_order_relaxed) == 0 &&
        w.compare_exchange_weak(free, 1, std::memory_order_acquire,
                                std::memory_order_relaxed))
      return;
    cpu_relax();
  }
  while (w.exchange(2, std::memory_order_acquire) != 0)
    w.wait(2, std::memory_order_relaxed);
}

void unlock_word(std::uint32_t& word) noexcept {
  std::atomic_ref<std::uint32_t> w(word);
  if (w.exchange(0, std::memory_order_release) == 2) w.notify_one();
}

/// Every set of one node, locked in order (lookups and inserts hold one set
/// lock at a time, so this cannot deadlock).
template <typename SetT>
class LockAll {
 public:
  LockAll(SetT* first, SetT* last) noexcept : first_(first), last_(last) {
    for (SetT* s = first_; s != last_; ++s) lock_word(s->lock);
  }
  ~LockAll() {
    for (SetT* s = first_; s != last_; ++s) unlock_word(s->lock);
  }
  LockAll(const LockAll&) = delete;
  LockAll& operator=(const LockAll&) = delete;

 private:
  SetT* first_;
  SetT* last_;
};

class WordLock {
 public:
  explicit WordLock(std::uint32_t& word) noexcept : word_(word) {
    lock_word(word_);
  }
  ~WordLock() { unlock_word(word_); }
  WordLock(const WordLock&) = delete;
  WordLock& operator=(const WordLock&) = delete;

 private:
  std::uint32_t& word_;
};

}  // namespace

// --- zero pages --------------------------------------------------------------

SeedIndexCache::ZeroPages::ZeroPages(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  p_ = static_cast<std::byte*>(p);
#ifdef MADV_HUGEPAGE
  // Best effort: a cache that fills faults its pages in 2 MB at a time
  // instead of 4 KB, and its scattered probes miss the TLB less.
  ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
}

SeedIndexCache::ZeroPages::ZeroPages(ZeroPages&& o) noexcept
    : p_(std::exchange(o.p_, nullptr)), bytes_(std::exchange(o.bytes_, 0)) {}

SeedIndexCache::ZeroPages& SeedIndexCache::ZeroPages::operator=(
    ZeroPages&& o) noexcept {
  if (this != &o) {
    if (p_) ::munmap(p_, bytes_);
    p_ = std::exchange(o.p_, nullptr);
    bytes_ = std::exchange(o.bytes_, 0);
  }
  return *this;
}

SeedIndexCache::ZeroPages::~ZeroPages() {
  if (p_) ::munmap(p_, bytes_);
}

// --- hit arena ---------------------------------------------------------------

const dht::SeedHit* SeedIndexCache::HitArena::store(const dht::SeedHit* hits,
                                                    std::uint32_t n) {
  const unsigned cls = size_class(n);
  const std::size_t size = std::size_t{1} << cls;
  std::byte* block = nullptr;
  {
    const std::scoped_lock lk(mu_);
    if (free_[cls]) {
      block = free_[cls];
      std::memcpy(&free_[cls], block, sizeof block);
    } else if (size > kChunkHits) {
      block = chunks_.emplace_back(size * sizeof(dht::SeedHit)).data();
    } else {
      if (left_ < size) {
        bump_ = chunks_.emplace_back(kChunkHits * sizeof(dht::SeedHit)).data();
        left_ = kChunkHits;
      }
      block = bump_;
      bump_ += size * sizeof(dht::SeedHit);
      left_ -= size;
    }
  }
  std::memcpy(block, hits, n * sizeof(dht::SeedHit));
  return reinterpret_cast<const dht::SeedHit*>(block);
}

void SeedIndexCache::HitArena::release(const dht::SeedHit* block,
                                       std::uint32_t n) noexcept {
  const unsigned cls = size_class(n);
  auto* bytes = reinterpret_cast<std::byte*>(const_cast<dht::SeedHit*>(block));
  const std::scoped_lock lk(mu_);
  std::memcpy(bytes, &free_[cls], sizeof bytes);
  free_[cls] = bytes;
}

// --- entries and sets --------------------------------------------------------

const dht::SeedHit* SeedIndexCache::Entry::block() const noexcept {
  const dht::SeedHit* b = nullptr;
  std::memcpy(&b, list, sizeof b);
  return b;
}

void SeedIndexCache::Entry::copy_hits(std::size_t max_hits,
                                      std::vector<dht::SeedHit>& out) const {
  if (nhits == 1) {
    if (max_hits == 0) return;
    dht::SeedHit h;
    std::memcpy(&h, list, sizeof h);
    out.push_back(h);
  } else if (nhits > 1) {
    const dht::SeedHit* b = block();
    out.insert(out.end(), b, b + std::min<std::size_t>(max_hits, nhits));
  }
}

int SeedIndexCache::find_way(std::size_t node, const Set& set,
                             const seq::Kmer& seed,
                             std::uint16_t tag) const noexcept {
  unsigned match = 0;
#if defined(__SSE2__)
  const __m128i t = _mm_set1_epi16(static_cast<short>(tag));
  const auto* tags = reinterpret_cast<const __m128i*>(set.tags.data());
  const __m128i lo = _mm_cmpeq_epi16(_mm_loadu_si128(tags), t);
  const __m128i hi = _mm_cmpeq_epi16(_mm_loadu_si128(tags + 1), t);
  match = static_cast<unsigned>(_mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
#else
  for (unsigned w = 0; w < kWays; ++w)
    match |= static_cast<unsigned>(set.tags[w] == tag) << w;
#endif
  match &= (1u << set.n) - 1;
  // Equal seeds have equal words and k; comparing them directly avoids the
  // out-of-line memcmp of Kmer's operator==.
  const auto& want = seed.words();
  for (; match != 0; match &= match - 1) {
    const int w = std::countr_zero(match);
    const seq::Kmer& got = entry(node, set, static_cast<std::size_t>(w)).seed;
    if (got.words()[0] == want[0] && got.words()[1] == want[1] &&
        got.k() == seed.k())
      return w;
  }
  return -1;
}

void SeedIndexCache::reserve_way(std::size_t node, Set& set,
                                 std::size_t w) noexcept {
  std::uint32_t& g = set.groups[w / kGroupWays];
  // A set takes at most kWays / kGroupWays groups and never returns one, so
  // the pool of nsets_ * 4 groups cannot run dry.
  if (g == 0)
    g = 1 + table_.groups_used[node].n.fetch_add(1, std::memory_order_relaxed);
}

void SeedIndexCache::fill(HitArena& arena, Entry& e, const seq::Kmer& seed,
                          const dht::SeedHit* hits, std::uint32_t nhits,
                          std::uint32_t total, std::uint32_t use_count) {
  const dht::SeedHit* block = nhits > 1 ? arena.store(hits, nhits) : nullptr;
  e.seed = seed;
  e.total = total;
  e.use_count = use_count;
  e.nhits = nhits;
  if (nhits == 1) std::memcpy(e.list, hits, sizeof(dht::SeedHit));
  if (nhits > 1) std::memcpy(e.list, &block, sizeof block);
}

// --- the cache ---------------------------------------------------------------

SeedIndexCache::SeedIndexCache(const pgas::Topology& topo, Options opt)
    : capacity_(opt.capacity_per_node),
      admission_(opt.eviction_aware_admission),
      nnodes_(static_cast<std::size_t>(topo.nnodes())),
      nsets_(detail::seed_cache_sets(capacity_)),
      share_(capacity_ / nsets_),
      wide_sets_(capacity_ % nsets_) {
  static_assert(sizeof(Set) == 64 && sizeof(Entry) == 48);
  static_assert(kSlots == obs::Counter::kStripes);
  // The set function multiplies the high 32 hash bits by the set count,
  // and group indices are u32.
  if (nsets_ > 0xFFFFFFFFu / (kWays / kGroupWays))
    throw std::length_error("seed cache: capacity_per_node " +
                            std::to_string(capacity_) + " is too large");
  table_ = Table(nnodes_, nsets_);
  arenas_ = std::make_unique<HitArena[]>(nnodes_);
  slots_ = std::make_unique<Slot[]>(nnodes_ * kSlots);
}

namespace {

/// Bytes of a table's occupancy bytes, padded so the headers after them
/// stay line-aligned.
std::size_t occupancy_bytes(std::size_t nnodes, std::size_t nsets) {
  return (nnodes * nsets + 63) / 64 * 64;
}

}  // namespace

SeedIndexCache::Table::Table(std::size_t nnodes, std::size_t nsets)
    : pages(occupancy_bytes(nnodes, nsets) +
            nnodes * nsets * (sizeof(Set) + kWays * sizeof(Entry))) {
  const std::size_t head = occupancy_bytes(nnodes, nsets);
  occupied = reinterpret_cast<std::uint8_t*>(pages.data());
  sets = reinterpret_cast<Set*>(pages.data() + head);
  entries = reinterpret_cast<Entry*>(pages.data() + head +
                                     nnodes * nsets * sizeof(Set));
  groups_used = std::make_unique<GroupCount[]>(nnodes);
}

bool SeedIndexCache::occupied(std::size_t set) const noexcept {
  return std::atomic_ref<std::uint8_t>(table_.occupied[set]).load(
             std::memory_order_relaxed) != 0;
}

void SeedIndexCache::mark(std::size_t set, bool filled) noexcept {
  std::atomic_ref<std::uint8_t>(table_.occupied[set])
      .store(filled ? 1 : 0, std::memory_order_relaxed);
}

SeedIndexCache::Slot& SeedIndexCache::slot(int node) const noexcept {
  return slots_[static_cast<std::size_t>(node) * kSlots +
                obs::detail::thread_stripe()];
}

bool SeedIndexCache::lookup(int node, const seq::Kmer& seed,
                            std::uint64_t hash, std::size_t max_hits,
                            std::vector<dht::SeedHit>& out,
                            std::size_t& total) {
  const auto nd = static_cast<std::size_t>(node);
  const std::size_t in_node = detail::seed_cache_set_of(hash, nsets_);
  Slot& c = slot(node);
  Set& set = table_.sets[nd * nsets_ + in_node];
  if (!occupied(nd * nsets_ + in_node)) {
    // The insert that follows a miss writes this header and, the set being
    // empty, the node's next free entry group: start fetching both.
    const std::size_t next_group =
        table_.groups_used[nd].n.load(std::memory_order_relaxed);
    __builtin_prefetch(&set, 1);
    __builtin_prefetch(
        &table_.entries[nd * nsets_ * kWays + next_group * kGroupWays], 1);
    bump(c.misses);
    return false;
  }
  const WordLock lk(set.lock);
  const int way = find_way(nd, set, seed, tag_of(hash));
  if (way < 0) {
    bump(c.misses);
    return false;
  }
  bump(c.hits);
  set.ref = static_cast<std::uint16_t>(set.ref | 1u << way);
  Entry& e = entry(nd, set, static_cast<std::size_t>(way));
  ++e.use_count;
  total = e.total;
  e.copy_hits(max_hits, out);
  return true;
}

void SeedIndexCache::insert(int node, const seq::Kmer& seed,
                            std::uint64_t hash,
                            const std::vector<dht::SeedHit>& hits,
                            std::size_t total) {
  if (capacity_ == 0) return;
  const std::uint16_t tag = tag_of(hash);
  const std::size_t in_node = detail::seed_cache_set_of(hash, nsets_);
  const auto nd = static_cast<std::size_t>(node);
  Set& set = table_.sets[nd * nsets_ + in_node];
  Slot& c = slot(node);
  HitArena& arena = arenas_[nd];
  const WordLock lk(set.lock);
  if (find_way(nd, set, seed, tag) >= 0) return;

  const auto nhits = static_cast<std::uint32_t>(hits.size());
  const auto total32 = static_cast<std::uint32_t>(total);
  if (set.n < share_of(in_node)) {
    reserve_way(nd, set, set.n);
    fill(arena, entry(nd, set, set.n), seed, hits.data(), nhits, total32, 0);
    set.tags[set.n] = tag;
    if (set.n++ == 0) mark(nd * nsets_ + in_node, true);
    bump(c.fills);
    return;
  }
  const auto advance = [&set] {
    if (++set.hand == set.n) set.hand = 0;
  };
  if (admission_) {
    // Eviction-aware admission: the newcomer has no recorded hits, so it
    // may only displace an entry that is just as cold. Probe a few ways
    // under the hand, halving each survivor's hit count; if every probed
    // entry is still warmer, refuse the insert.
    std::size_t probes = std::min<std::size_t>(kAdmissionProbes, set.n);
    for (; probes > 0 && entry(nd, set, set.hand).use_count != 0; --probes) {
      entry(nd, set, set.hand).use_count /= 2;
      advance();
    }
    if (probes == 0) {
      bump(c.admission_rejects);
      return;
    }
  } else {
    // CLOCK: a way hit since the hand last passed gets a second chance.
    while (set.ref >> set.hand & 1u) {
      set.ref = static_cast<std::uint16_t>(set.ref & ~(1u << set.hand));
      advance();
    }
  }
  const std::size_t way = set.hand;
  Entry& e = entry(nd, set, way);
  const std::uint32_t old_n = e.nhits;
  const dht::SeedHit* old_block = old_n > 1 ? e.block() : nullptr;
  fill(arena, e, seed, hits.data(), nhits, total32, 0);
  if (old_block) arena.release(old_block, old_n);
  set.tags[way] = tag;
  set.ref = static_cast<std::uint16_t>(set.ref & ~(1u << way));
  advance();
  bump(c.evictions);
}

CacheCounters SeedIndexCache::node_counters(std::size_t node) const {
  CacheCounters c;
  for (std::size_t i = node * kSlots; i < (node + 1) * kSlots; ++i) {
    const Slot& sl = slots_[i];
    c.hits += sl.hits.load(std::memory_order_relaxed);
    c.misses += sl.misses.load(std::memory_order_relaxed);
    c.evictions += sl.evictions.load(std::memory_order_relaxed);
    c.insertions += sl.insertions_offset.load(std::memory_order_relaxed) +
                    sl.fills.load(std::memory_order_relaxed) +
                    sl.evictions.load(std::memory_order_relaxed);
    c.admission_rejects +=
        sl.admission_rejects.load(std::memory_order_relaxed);
  }
  return c;
}

CacheCounters SeedIndexCache::counters() const {
  CacheCounters c;
  for (std::size_t node = 0; node < nnodes_; ++node) c += node_counters(node);
  return c;
}

std::size_t SeedIndexCache::entries() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nnodes_ * kSlots; ++i)
    n += slots_[i].fills.load(std::memory_order_relaxed);
  return n;
}

// --- snapshot serialization --------------------------------------------------
//
// Layout (way order plus hand and reference bits preserve each set's CLOCK
// schedule):
//   nnodes u64
//   per node: counters 5 x u64 | nsets u64
//     per set: nways u8 | hand u8 | reference bits u16
//       per way: k u32 | kmer 2 x u64 | use_count u32 | total u32
//                | nhits u32 | nhits x (3 x u32)

void SeedIndexCache::save(std::ostream& os) const {
  using snapio::put;
  put<std::uint64_t>(os, nnodes_);
  std::vector<dht::SeedHit> hits;
  for (std::size_t node = 0; node < nnodes_; ++node) {
    // Hold the whole node so its sets and the counters that move with them
    // (everything but misses on empty sets is bumped under a set lock) come
    // from one instant.
    Set* first = table_.sets + node * nsets_;
    const LockAll lk(first, first + nsets_);
    snapio::put_counters(os, node_counters(node));
    put<std::uint64_t>(os, nsets_);
    for (std::size_t s = node * nsets_; s < (node + 1) * nsets_; ++s) {
      const Set& set = table_.sets[s];
      put<std::uint8_t>(os, set.n);
      put<std::uint8_t>(os, set.hand);
      put<std::uint16_t>(os, set.ref);
      for (std::size_t w = 0; w < set.n; ++w) {
        const Entry& e = entry(node, set, w);
        put<std::uint32_t>(os, static_cast<std::uint32_t>(e.seed.k()));
        put<std::uint64_t>(os, e.seed.words()[0]);
        put<std::uint64_t>(os, e.seed.words()[1]);
        put<std::uint32_t>(os, e.use_count);
        put<std::uint32_t>(os, e.total);
        put<std::uint32_t>(os, e.nhits);
        hits.clear();
        e.copy_hits(e.nhits, hits);
        for (const dht::SeedHit& h : hits) {
          put<std::uint32_t>(os, h.fragment_id);
          put<std::uint32_t>(os, h.target_id);
          put<std::uint32_t>(os, h.t_pos);
        }
      }
    }
  }
}

void SeedIndexCache::load(std::istream& is) {
  using snapio::get;
  const auto saved_nodes = get<std::uint64_t>(is);
  if (saved_nodes != nnodes_)
    throw CacheSnapshotError(
        "cache snapshot: seed section has " + std::to_string(saved_nodes) +
        " node shards, this topology has " + std::to_string(nnodes_));

  /// One snapshot entry; its hits are hits[first_hit, first_hit + nhits).
  struct Loaded {
    seq::Kmer seed;
    std::uint64_t hash = 0;
    std::uint32_t use_count = 0;
    std::uint32_t total = 0;
    std::uint32_t nhits = 0;
    std::size_t first_hit = 0;
  };
  /// A set as saved: its ways are loaded[first, first + n).
  struct Staged {
    std::uint8_t n = 0;
    std::uint8_t hand = 0;
    std::uint16_t ref = 0;
    std::size_t first = 0;
  };

  for (std::size_t node = 0; node < nnodes_; ++node) {
    const CacheCounters counters = snapio::get_counters(is);
    const auto saved_sets = get<std::uint64_t>(is);
    if (saved_sets != nsets_)
      throw CacheSnapshotError(
          "cache snapshot: seed section has " + std::to_string(saved_sets) +
          " sets per node, this cache has " + std::to_string(nsets_));

    std::vector<Loaded> loaded;
    std::vector<dht::SeedHit> hits;
    std::vector<Staged> staged(nsets_);
    for (std::size_t s = 0; s < nsets_; ++s) {
      Staged& set = staged[s];
      set.n = get<std::uint8_t>(is);
      set.hand = get<std::uint8_t>(is);
      set.ref = get<std::uint16_t>(is);
      if (set.n > share_of(s))
        throw CacheSnapshotError(
            "cache snapshot: seed set holds " + std::to_string(set.n) +
            " ways, over its share of " + std::to_string(share_of(s)));
      if (set.n == 0 ? set.hand != 0 : set.hand >= set.n)
        throw CacheSnapshotError("cache snapshot: seed set hand out of range");
      if (set.ref >> set.n != 0)
        throw CacheSnapshotError(
            "cache snapshot: seed reference bit on an empty way");
      set.first = loaded.size();
      for (std::uint32_t w = 0; w < set.n; ++w) {
        const auto k = get<std::uint32_t>(is);
        std::array<std::uint64_t, 2> words;
        words[0] = get<std::uint64_t>(is);
        words[1] = get<std::uint64_t>(is);
        const auto seed = seq::Kmer::from_words(static_cast<int>(k), words);
        if (!seed)
          throw CacheSnapshotError("cache snapshot: invalid seed encoding");
        Loaded& e = loaded.emplace_back();
        e.seed = *seed;
        e.hash = seed->mixed_hash();
        if (detail::seed_cache_set_of(e.hash, nsets_) != s)
          throw CacheSnapshotError(
              "cache snapshot: seed entry saved under the wrong set");
        for (std::size_t j = set.first; j + 1 < loaded.size(); ++j)
          if (loaded[j].seed == e.seed)
            throw CacheSnapshotError("cache snapshot: duplicate seed entry");
        e.use_count = get<std::uint32_t>(is);
        e.total = get<std::uint32_t>(is);
        e.nhits = get<std::uint32_t>(is);
        e.first_hit = hits.size();
        for (std::uint32_t h = 0; h < e.nhits; ++h) {
          dht::SeedHit hit;
          hit.fragment_id = get<std::uint32_t>(is);
          hit.target_id = get<std::uint32_t>(is);
          hit.t_pos = get<std::uint32_t>(is);
          hits.push_back(hit);
        }
      }
    }

    // Stage outside the locks, then write in: a node is either fully
    // replaced or (on a malformed snapshot) left exactly as it was.
    Set* first = table_.sets + node * nsets_;
    HitArena& arena = arenas_[node];
    const LockAll lk(first, first + nsets_);
    std::uint64_t filled = 0;
    for (std::size_t t = 0; t < nsets_; ++t) {
      Set& set = first[t];
      const std::size_t old_n = set.n;
      set.n = 0;
      set.hand = 0;
      set.ref = 0;
      for (std::size_t w = 0; w < old_n; ++w) {
        const Entry& old = entry(node, set, w);
        if (old.nhits > 1) arena.release(old.block(), old.nhits);
      }
      const Staged& st = staged[t];
      for (std::size_t w = 0; w < st.n; ++w) {
        const Loaded& e = loaded[st.first + w];
        reserve_way(node, set, w);
        fill(arena, entry(node, set, w), e.seed, hits.data() + e.first_hit,
             e.nhits, e.total, e.use_count);
        set.tags[w] = tag_of(e.hash);
        set.n = static_cast<std::uint8_t>(w + 1);
      }
      mark(node * nsets_ + t, st.n > 0);
      set.hand = st.hand;
      set.ref = st.ref;
      filled += st.n;
    }
    // Counters are persisted per node; slot 0 carries them.
    for (std::size_t i = node * kSlots; i < (node + 1) * kSlots; ++i) {
      Slot& sl = slots_[i];
      const bool carry = i == node * kSlots;
      sl.hits.store(carry ? counters.hits : 0, std::memory_order_relaxed);
      sl.misses.store(carry ? counters.misses : 0, std::memory_order_relaxed);
      sl.insertions_offset.store(
          carry ? counters.insertions - filled - counters.evictions : 0,
          std::memory_order_relaxed);
      sl.evictions.store(carry ? counters.evictions : 0,
                         std::memory_order_relaxed);
      sl.admission_rejects.store(carry ? counters.admission_rejects : 0,
                                 std::memory_order_relaxed);
      sl.fills.store(carry ? filled : 0, std::memory_order_relaxed);
    }
  }
}

}  // namespace mera::cache
