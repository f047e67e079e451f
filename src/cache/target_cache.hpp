// Node-level software cache for remote target sequences (Section III-B).
//
// Targets are much longer than reads, so many reads extend against the same
// target; caching a fetched remote target on its first use serves every later
// extension on the node for free. The paper finds this cache "extremely
// efficient at all concurrencies — it essentially obviates all the
// communication involved with target sequences" (Figure 9); the byte-bounded
// LRU below reproduces that behaviour.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/seed_cache.hpp"  // CacheCounters
#include "pgas/topology.hpp"

namespace mera::cache {

class TargetCache {
 public:
  struct Options {
    /// Cached payload budget per node (paper: 6 GB/node; scaled down).
    std::size_t capacity_bytes_per_node = 64u << 20;
    /// Eviction-aware admission (multi-tenant batch streams): an insert that
    /// must evict to fit only sacrifices LRU-tail entries with no recorded
    /// hits. A warm tail entry gets a second chance — its hit count is
    /// halved and it rotates to the front — for a bounded number of probes;
    /// if the cache is still too full of warmer-than-the-newcomer entries,
    /// the insert is refused (counters().admission_rejects). Off = plain
    /// byte-bounded LRU.
    bool eviction_aware_admission = false;
  };

  TargetCache(const pgas::Topology& topo, Options opt);

  /// True iff target `gid` is already cached on `node` (touches LRU).
  bool contains(int node, std::uint32_t gid);

  /// Record that `gid` (of `bytes` payload) is now cached on `node`,
  /// evicting least-recently-used entries to fit.
  void insert(int node, std::uint32_t gid, std::size_t bytes);

  [[nodiscard]] CacheCounters counters() const;
  [[nodiscard]] std::size_t entries() const;  ///< summed over nodes
  [[nodiscard]] std::size_t capacity_bytes_per_node() const noexcept {
    return capacity_;
  }

  // --- snapshot persistence (cache_snapshot.hpp wraps these in a versioned,
  // checksummed, fingerprinted file format) --------------------------------
  /// Serialize every node shard — entries in LRU order (most recent first)
  /// with payload sizes and per-entry hit counts, plus cumulative counters —
  /// so load() reproduces this cache bit-for-bit. Takes each shard's lock in
  /// turn; safe concurrently with contains/insert.
  void save(std::ostream& os) const;
  /// Replace this cache's contents with a snapshot saved by a cache of the
  /// same topology and capacity, exactly. A node count that differs, or a
  /// node whose entries exceed capacity_bytes_per_node, throws
  /// CacheSnapshotError and leaves that node as it was. Restored counters
  /// are cumulative across processes.
  void load(std::istream& is);

 private:
  struct Entry {
    std::uint32_t gid;
    std::size_t bytes;
    std::uint32_t use_count = 0;  ///< contains() hits (admission policy)
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::uint32_t, std::list<Entry>::iterator> map;
    std::size_t used_bytes = 0;
    CacheCounters counters;
  };

  std::size_t capacity_;
  bool admission_;
  std::vector<Shard> shards_;
};

}  // namespace mera::cache
