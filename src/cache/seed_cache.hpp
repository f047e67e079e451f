// Node-level software cache for remote seed-index entries (Section III-B).
//
// Each simulated node dedicates memory to caching lookup results for seeds
// whose home rank lives on a *different* node; any rank of the node can then
// serve repeat lookups of that seed locally, skipping the off-node transfer.
// The paper's cache is a shared node resource (UPC shared memory with node
// affinity), so every rank of a node reads and fills the same cache.
//
// A node's cache is set-associative: ceil(capacity / 16) sets of 16 ways.
// The high 32 bits of a seed's mixed hash pick its set (multiply-shift), the
// low 16 bits are its tag. A set is one 64-byte header — a u32 lock word, the
// filled-way count, the CLOCK hand, one reference bit per way, the 16 tags
// and the pool indices of its entry groups — so a probe locks and reads one
// header line, compares tags, and touches one 48-byte entry.
//   * Each set holds at most its share of the node capacity. An insert
//     fills a free way while there is one; after that it evicts by CLOCK
//     within the set (a way whose reference bit a hit set gets a second
//     chance), or, with eviction-aware admission, by the hit-count probe.
//   * The lock word spins briefly, then parks the thread on the word
//     (std::atomic_ref::wait); 0 means free.
//   * One byte per set marks the sets that hold an entry, so a lookup into
//     an empty set misses without touching the set and prefetches its
//     header and the node's next free entry group for the insert that
//     follows the miss. While a cache is far
//     from full (a short run, or the first batches of a long one) most
//     lookups land in empty sets.
//   * Occupancy bytes, headers and entries live in anonymous zero pages
//     (transparent huge pages where the kernel grants them) mapped once at
//     construction and never moved: all-zero is an empty, unlocked cache.
//     A set's entries sit in groups of 4 ways handed out in first-use
//     order, so a lightly used cache touches few pages and one that never
//     caches anything touches none. Destruction unmaps them.
//   * Counters live in per-thread-slot cache lines per node, summed on
//     read; counters() never scans the sets.
//   * A one-hit list is stored in its entry. Longer lists live in a per-node
//     arena of pointer-stable chunks with size-class free lists and its own
//     mutex; an entry stores its block's address, so a reader under the set
//     lock never touches the arena's bookkeeping.
// A full cache whose arena has seen its working set inserts and evicts
// without any heap allocation.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "dht/seed_index.hpp"
#include "pgas/topology.hpp"
#include "seq/kmer.hpp"

namespace mera::cache {

struct KmerHasher {
  std::size_t operator()(const seq::Kmer& k) const noexcept {
    return static_cast<std::size_t>(k.mixed_hash());
  }
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts refused by the eviction-aware admission policy: the candidate
  /// was colder than everything the cache would have had to evict for it.
  std::uint64_t admission_rejects = 0;
  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  CacheCounters& operator+=(const CacheCounters& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    admission_rejects += o.admission_rejects;
    return *this;
  }

  /// Counters are cumulative over a cache's lifetime — including history
  /// restored by a snapshot load; sessions subtract a batch-start (or
  /// post-load) snapshot to report per-batch activity.
  CacheCounters& operator-=(const CacheCounters& o) noexcept {
    hits -= o.hits;
    misses -= o.misses;
    insertions -= o.insertions;
    evictions -= o.evictions;
    admission_rejects -= o.admission_rejects;
    return *this;
  }
  friend CacheCounters operator-(CacheCounters a,
                                 const CacheCounters& b) noexcept {
    a -= b;
    return a;
  }
  friend bool operator==(const CacheCounters&, const CacheCounters&) = default;
};

namespace detail {

/// Ways per seed-cache set.
inline constexpr std::size_t kSeedCacheWays = 16;

/// Sets per node for a capacity: ceil(capacity / 16), at least one.
constexpr std::size_t seed_cache_sets(std::size_t capacity) noexcept {
  return capacity == 0 ? 1 : (capacity + kSeedCacheWays - 1) / kSeedCacheWays;
}

/// The set of a seed with mixed hash `hash` among `nsets` sets:
/// multiply-shift on the high 32 bits.
constexpr std::size_t seed_cache_set_of(std::uint64_t hash,
                                        std::size_t nsets) noexcept {
  return static_cast<std::size_t>(((hash >> 32) * nsets) >> 32);
}

}  // namespace detail

class SeedIndexCache {
 public:
  struct Options {
    /// Max cached seeds per node (the paper dedicates 16 GB/node; scaled).
    std::size_t capacity_per_node = 1u << 18;
    /// Eviction-aware admission (multi-tenant batch streams): a full set
    /// admits a new entry only by evicting one with no recorded hits. The
    /// set's hand probes a few ways, halving each probed entry's hit count
    /// (so nothing is protected forever); if every probed way is still
    /// warmer than the hitless newcomer, the insert is refused instead
    /// (counters().admission_rejects). Off = CLOCK eviction within the set.
    bool eviction_aware_admission = false;
  };

  SeedIndexCache(const pgas::Topology& topo, Options opt);

  /// Serve a lookup from the node's cache. On hit, copies up to max_hits
  /// locations into `out`, sets `total` and returns true. `hash` is
  /// seed.mixed_hash(), computed by the caller once per seed.
  bool lookup(int node, const seq::Kmer& seed, std::uint64_t hash,
              std::size_t max_hits, std::vector<dht::SeedHit>& out,
              std::size_t& total);
  bool lookup(int node, const seq::Kmer& seed, std::size_t max_hits,
              std::vector<dht::SeedHit>& out, std::size_t& total) {
    return lookup(node, seed, seed.mixed_hash(), max_hits, out, total);
  }

  /// Record a fetched lookup result in the node's cache; `hash` as above.
  void insert(int node, const seq::Kmer& seed, std::uint64_t hash,
              const std::vector<dht::SeedHit>& hits, std::size_t total);
  void insert(int node, const seq::Kmer& seed,
              const std::vector<dht::SeedHit>& hits, std::size_t total) {
    insert(node, seed, seed.mixed_hash(), hits, total);
  }

  /// Start loading what a lookup of the seed with mixed hash `hash` reads
  /// first: its set's occupancy byte, and its set header for writing (the
  /// set lock is a CAS on it, and the insert after a miss writes it too).
  void prefetch(int node, std::uint64_t hash) const noexcept {
    const std::size_t set = static_cast<std::size_t>(node) * nsets_ +
                            detail::seed_cache_set_of(hash, nsets_);
    __builtin_prefetch(table_.occupied + set);
    __builtin_prefetch(table_.sets + set, 1);
  }

  [[nodiscard]] CacheCounters counters() const;  ///< summed over nodes
  [[nodiscard]] std::size_t entries() const;     ///< summed over nodes
  [[nodiscard]] std::size_t capacity_per_node() const noexcept {
    return capacity_;
  }

  // --- snapshot persistence (cache_snapshot.hpp wraps these in a versioned,
  // checksummed, fingerprinted file format) --------------------------------
  /// Serialize every node — its cumulative counters, its set count, then
  /// each set's hand, reference bits and entries in way order with their
  /// per-entry hit counts — so load() into a cache of the same capacity
  /// reproduces this cache bit-for-bit (same future hits, same evictions).
  /// Holds one node's set locks at a time; safe concurrently with lookups
  /// and inserts (the snapshot is then per-node consistent).
  void save(std::ostream& os) const;
  /// Replace this cache's contents with a snapshot saved by a cache of the
  /// same topology and capacity, exactly. A node count or set count that
  /// differs, or a set holding more entries than its share of
  /// capacity_per_node, throws CacheSnapshotError and leaves that node as it
  /// was. Restored counters are cumulative across processes.
  void load(std::istream& is);

 private:
  static constexpr std::size_t kWays = detail::kSeedCacheWays;

  /// Ways per entry group: a set's entries sit in up to four groups,
  /// each taken from its node's group pool when the set first needs it.
  static constexpr std::size_t kGroupWays = 4;

  /// One set's header line. All-zero is an empty, unlocked set. Sets and
  /// entries are implicit-lifetime aggregates: they live in zero pages and
  /// are never constructed.
  struct alignas(64) Set {
    std::uint32_t lock = 0;  ///< 0 free, 1 held, 2 held with parked waiters
    std::uint8_t n = 0;      ///< filled ways: always the prefix [0, n)
    std::uint8_t hand = 0;   ///< CLOCK hand, < n once the set has evicted
    std::uint16_t ref = 0;   ///< CLOCK reference bit per way
    std::array<std::uint16_t, kWays> tags{};  ///< low 16 hash bits per way
    /// 1 + pool index of the group holding ways [4g, 4g + 4); 0 = none yet.
    std::array<std::uint32_t, kWays / kGroupWays> groups{};
  };

  /// One cached seed. `list` holds the hit itself when nhits == 1 and the
  /// address of its arena block when nhits > 1 (byte storage keeps the
  /// entry at 48 bytes).
  struct Entry {
    seq::Kmer seed;
    std::uint32_t total = 0;
    std::uint32_t use_count = 0;  ///< lookup hits on this entry (admission)
    std::uint32_t nhits = 0;
    alignas(4) std::byte list[sizeof(dht::SeedHit)]{};

    [[nodiscard]] const dht::SeedHit* block() const noexcept;
    /// Append the first min(max_hits, nhits) hits to `out`.
    void copy_hits(std::size_t max_hits, std::vector<dht::SeedHit>& out) const;
  };

  /// An anonymous private mapping: zero-filled, untouched until written,
  /// never moved, unmapped on destruction.
  class ZeroPages {
   public:
    ZeroPages() = default;
    explicit ZeroPages(std::size_t bytes);
    ZeroPages(ZeroPages&& o) noexcept;
    ZeroPages& operator=(ZeroPages&& o) noexcept;
    ~ZeroPages();
    [[nodiscard]] std::byte* data() const noexcept { return p_; }

   private:
    std::byte* p_ = nullptr;
    std::size_t bytes_ = 0;
  };

  /// Every node's occupancy bytes, set headers and entry-group pool, in one
  /// mapping.
  struct Table {
    Table() = default;
    Table(std::size_t nnodes, std::size_t nsets);

    ZeroPages pages;
    Set* sets = nullptr;  ///< node-major: node * nsets + set
    /// Per node, a pool of nsets * 4 groups of kGroupWays entries, handed
    /// out in first-use order so a sparsely used cache touches few pages.
    Entry* entries = nullptr;
    /// Groups handed out so far, per node, each on its own line: ranks of
    /// different nodes fill sets at the same time.
    struct alignas(64) GroupCount {
      std::atomic<std::uint32_t> n{0};
    };
    std::unique_ptr<GroupCount[]> groups_used;
    /// One byte per set, node-major like `sets`, nonzero once the set
    /// holds an entry. It is written only under the set's lock, so marking
    /// a set is a plain store, not a read-modify-write on a line the
    /// node's other ranks share.
    std::uint8_t* occupied = nullptr;
  };

  /// A node's hit lists longer than one, in power-of-two blocks carved from
  /// chunks that never move; a released block heads its size class's free
  /// list (linked through its first bytes).
  class alignas(64) HitArena {
   public:
    const dht::SeedHit* store(const dht::SeedHit* hits, std::uint32_t n);
    void release(const dht::SeedHit* block, std::uint32_t n) noexcept;

   private:
    std::mutex mu_;
    std::vector<ZeroPages> chunks_;
    std::byte* bump_ = nullptr;  ///< unused tail of the newest chunk
    std::size_t left_ = 0;       ///< hits left at bump_
    std::array<std::byte*, 33> free_{};  ///< head per size class
  };

  /// One thread slot's counters for one node, on its own cache line.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> admission_rejects{0};
    std::atomic<std::uint64_t> fills{0};  ///< inserts into a free way
    /// Every insert fills or evicts, so insertions are fills + evictions;
    /// this only carries the difference a snapshot load restores.
    std::atomic<std::uint64_t> insertions_offset{0};
  };
  static constexpr std::size_t kSlots = 16;

  /// This set's share of capacity_per_node.
  [[nodiscard]] std::size_t share_of(std::size_t set_in_node) const noexcept {
    return share_ + (set_in_node < wide_sets_ ? 1 : 0);
  }
  /// Entry of way `w` of a set of `node`; its group must exist.
  [[nodiscard]] Entry& entry(std::size_t node, const Set& set,
                             std::size_t w) const noexcept {
    return table_.entries[node * nsets_ * kWays +
                          (set.groups[w / kGroupWays] - 1) * kGroupWays +
                          w % kGroupWays];
  }
  /// Whether a set (index node * nsets_ + set) holds an entry.
  [[nodiscard]] bool occupied(std::size_t set) const noexcept;
  /// Record whether a set holds an entry; the caller holds its lock.
  void mark(std::size_t set, bool filled) noexcept;
  /// Make sure way `w` of `set` has its group, taking one from the pool.
  void reserve_way(std::size_t node, Set& set, std::size_t w) noexcept;
  [[nodiscard]] Slot& slot(int node) const noexcept;
  [[nodiscard]] CacheCounters node_counters(std::size_t node) const;
  /// Way of `seed` in a set of `node`, or -1.
  [[nodiscard]] int find_way(std::size_t node, const Set& set,
                             const seq::Kmer& seed,
                             std::uint16_t tag) const noexcept;
  /// Overwrite `e` with a new entry, storing a long list in `arena` first
  /// (so a failed store leaves `e` as it was). Does not release e's old list.
  static void fill(HitArena& arena, Entry& e, const seq::Kmer& seed,
                   const dht::SeedHit* hits, std::uint32_t nhits,
                   std::uint32_t total, std::uint32_t use_count);

  std::size_t capacity_;
  bool admission_;
  std::size_t nnodes_;
  std::size_t nsets_;      ///< sets per node
  std::size_t share_;      ///< capacity_ / nsets_
  std::size_t wide_sets_;  ///< the first capacity_ % nsets_ sets hold one more
  Table table_;
  std::unique_ptr<HitArena[]> arenas_;  ///< one per node
  std::unique_ptr<Slot[]> slots_;       ///< kSlots per node
};

}  // namespace mera::cache
