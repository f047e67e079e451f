// Node-level software cache for remote seed-index entries (Section III-B).
//
// Each simulated node dedicates memory to caching lookup results for seeds
// whose home rank lives on a *different* node; any rank of the node can then
// serve repeat lookups of that seed locally, skipping the off-node transfer.
// The paper's cache is a shared node resource (UPC shared memory with node
// affinity), so every rank of a node reads and fills the same cache.
//
// A node's cache is split into S lock stripes, S = bit_floor(clamp(capacity
// / 4096, 1, 16)) — derived from the capacity, so every cache under 8192
// entries is a single stripe. The high bits of a seed's mixed hash pick its
// stripe. Each stripe is an independent clock cache over its share of the
// capacity, with its own mutex, cursor and counters:
//   * entries live in one flat array that *is* the clock ring: eviction and
//     admission overwrite the entry under the cursor in place;
//   * a u32 open-addressing index (linear probing, backward-shift delete)
//     maps a seed to its ring slot; it doubles as the entry count grows;
//   * a one-hit list is stored inline in its entry; longer lists live in a
//     per-stripe arena with power-of-two size-class free lists.
// A stripe at capacity whose arena has seen its working set inserts and
// evicts without any heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
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

class SeedIndexCache {
 public:
  struct Options {
    /// Max cached seeds per node (the paper dedicates 16 GB/node; scaled).
    std::size_t capacity_per_node = 1u << 18;
    /// Eviction-aware admission (multi-tenant batch streams): a full cache
    /// admits a new entry only by evicting one with no recorded hits. The
    /// clock hand probes a few slots, halving each probed entry's hit count
    /// (so nothing is protected forever); if every probed slot is still
    /// warmer than the hitless newcomer, the insert is refused instead
    /// (counters().admission_rejects). Off = plain clock overwrite.
    bool eviction_aware_admission = false;
  };

  SeedIndexCache(const pgas::Topology& topo, Options opt);

  /// Serve a lookup from the node's cache. On hit, copies up to max_hits
  /// locations into `out`, sets `total` and returns true.
  bool lookup(int node, const seq::Kmer& seed, std::size_t max_hits,
              std::vector<dht::SeedHit>& out, std::size_t& total);

  /// Record a fetched lookup result in the node's cache.
  void insert(int node, const seq::Kmer& seed,
              const std::vector<dht::SeedHit>& hits, std::size_t total);

  [[nodiscard]] CacheCounters counters() const;  ///< summed over nodes
  [[nodiscard]] std::size_t entries() const;     ///< summed over nodes
  [[nodiscard]] std::size_t capacity_per_node() const noexcept {
    return capacity_;
  }

  // --- snapshot persistence (cache_snapshot.hpp wraps these in a versioned,
  // checksummed, fingerprinted file format) --------------------------------
  /// Serialize every node — its cumulative counters, its stripe count, then
  /// each stripe's cursor and entries in clock-ring order with their
  /// per-entry hit counts — so load() into a cache with the same stripe
  /// count reproduces this cache bit-for-bit (same future hits, same
  /// evictions). Holds one node's stripe locks at a time; safe concurrently
  /// with lookups and inserts (the snapshot is then per-node consistent).
  void save(std::ostream& os) const;
  /// Replace this cache's contents with a saved snapshot. The snapshot's
  /// node count must match (throws CacheSnapshotError otherwise). A stripe
  /// that fits is restored exactly. When the snapshot's stripe count
  /// differs, or a stripe holds more entries than its share of
  /// capacity_per_node, the warmest entries win: entries are admitted by
  /// (persisted hits desc, most recently inserted first) until their
  /// stripe is full and the rest are counted as admission_rejects — the
  /// eviction-aware admission policy applied at load time. Restored
  /// counters are cumulative across processes.
  void load(std::istream& is);

 private:
  /// Marks a free index cell and an empty arena free list.
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  /// One cached seed. Its slot in the ring is its clock position.
  struct Entry {
    seq::Kmer seed;
    std::uint32_t total = 0;
    std::uint32_t use_count = 0;  ///< lookup hits on this entry (admission)
    std::uint32_t nhits = 0;
    std::uint32_t hash_lo = 0;    ///< low 32 bits of seed.mixed_hash()
    dht::SeedHit hit;             ///< the hit list when nhits == 1
    std::uint32_t block = 0;      ///< arena offset of the list when nhits > 1
  };

  /// Hit lists longer than one, in power-of-two blocks; a released block
  /// heads its size class's free list (linked through its first hit).
  class HitArena {
   public:
    HitArena() { free_.fill(kEmpty); }
    std::uint32_t store(const dht::SeedHit* hits, std::uint32_t n);
    void release(std::uint32_t block, std::uint32_t n) noexcept;
    [[nodiscard]] const dht::SeedHit* at(std::uint32_t block) const noexcept {
      return slab_.data() + block;
    }

   private:
    std::vector<dht::SeedHit> slab_;
    std::array<std::uint32_t, 33> free_{};  ///< head per size class
  };

  /// A stripe's storage: the clock ring, its index and its hit arena.
  /// Movable, so a snapshot load can stage one outside the stripe lock.
  struct Clock {
    std::vector<Entry> ring;
    std::vector<std::uint32_t> index;  ///< ring slots; kEmpty = free
    HitArena arena;
    std::size_t cursor = 0;

    /// Ring slot of `seed`, or kEmpty.
    [[nodiscard]] std::uint32_t find(const seq::Kmer& seed,
                                     std::uint32_t hash_lo) const noexcept;
    [[nodiscard]] const dht::SeedHit* hits_of(const Entry& e) const noexcept {
      return e.nhits <= 1 ? &e.hit : arena.at(e.block);
    }
    /// Add a new entry at the end of the ring.
    void append(const seq::Kmer& seed, std::uint32_t hash_lo,
                const dht::SeedHit* hits, std::uint32_t nhits,
                std::uint32_t total, std::uint32_t use_count);
    /// Replace the entry in ring slot `slot` with a new one.
    void overwrite(std::size_t slot, const seq::Kmer& seed,
                   std::uint32_t hash_lo, const dht::SeedHit* hits,
                   std::uint32_t nhits, std::uint32_t total);

   private:
    void fill(Entry& e, const seq::Kmer& seed, std::uint32_t hash_lo,
              const dht::SeedHit* hits, std::uint32_t nhits,
              std::uint32_t total, std::uint32_t use_count);
    void index_insert(std::uint32_t hash_lo, std::uint32_t slot) noexcept;
    void index_erase(std::uint32_t slot) noexcept;
    void rehash(std::size_t size);
  };

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    Clock clock;
    std::size_t capacity = 0;  ///< this stripe's share of capacity_per_node
    CacheCounters counters;
  };

  [[nodiscard]] std::size_t stripe_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>((hash >> 32) >> stripe_shift_);
  }
  [[nodiscard]] Stripe& stripe(int node, std::uint64_t hash) noexcept {
    return stripes_[static_cast<std::size_t>(node) * nstripes_ +
                    stripe_of(hash)];
  }

  std::size_t capacity_;
  bool admission_;
  std::size_t nstripes_;   ///< stripes per node, a power of two
  unsigned stripe_shift_;  ///< 32 - log2(nstripes_)
  std::vector<Stripe> stripes_;  // node-major: node * nstripes_ + stripe
};

}  // namespace mera::cache
