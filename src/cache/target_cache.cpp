#include "cache/target_cache.hpp"

#include <string>

#include "cache/cache_snapshot.hpp"

namespace mera::cache {

namespace {

/// Second-chance probes per admission attempt (see Options).
constexpr std::size_t kAdmissionProbes = 8;

}  // namespace

TargetCache::TargetCache(const pgas::Topology& topo, Options opt)
    : capacity_(opt.capacity_bytes_per_node),
      admission_(opt.eviction_aware_admission),
      shards_(static_cast<std::size_t>(topo.nnodes())) {}

bool TargetCache::contains(int node, std::uint32_t gid) {
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::scoped_lock lk(sh.mu);
  const auto it = sh.map.find(gid);
  if (it == sh.map.end()) {
    ++sh.counters.misses;
    return false;
  }
  ++sh.counters.hits;
  ++it->second->use_count;
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // touch
  return true;
}

void TargetCache::insert(int node, std::uint32_t gid, std::size_t bytes) {
  if (capacity_ == 0 || bytes > capacity_) return;
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::scoped_lock lk(sh.mu);
  if (sh.map.contains(gid)) return;
  if (admission_) {
    // Eviction-aware admission: only hitless LRU-tail entries may be
    // sacrificed for the hitless newcomer. A warm tail entry takes a second
    // chance instead — hit count halved, rotated to the front — for a
    // bounded number of probes; if the cache is still too full after that,
    // the newcomer is refused.
    std::size_t probes = 0;
    while (sh.used_bytes + bytes > capacity_ && !sh.lru.empty() &&
           probes < kAdmissionProbes) {
      Entry& victim = sh.lru.back();
      if (victim.use_count == 0) {
        sh.used_bytes -= victim.bytes;
        sh.map.erase(victim.gid);
        sh.lru.pop_back();
        ++sh.counters.evictions;
      } else {
        victim.use_count /= 2;
        sh.lru.splice(sh.lru.begin(), sh.lru, std::prev(sh.lru.end()));
        ++probes;
      }
    }
    if (sh.used_bytes + bytes > capacity_) {
      ++sh.counters.admission_rejects;
      return;
    }
  } else {
    while (sh.used_bytes + bytes > capacity_ && !sh.lru.empty()) {
      const Entry& victim = sh.lru.back();
      sh.used_bytes -= victim.bytes;
      sh.map.erase(victim.gid);
      sh.lru.pop_back();
      ++sh.counters.evictions;
    }
  }
  sh.lru.push_front(Entry{gid, bytes, 0});
  sh.map.emplace(gid, sh.lru.begin());
  sh.used_bytes += bytes;
  ++sh.counters.insertions;
}

CacheCounters TargetCache::counters() const {
  CacheCounters c;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    c += sh.counters;
  }
  return c;
}

std::size_t TargetCache::entries() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    n += sh.map.size();
  }
  return n;
}

// --- snapshot serialization --------------------------------------------------
//
// Per-shard layout (LRU order, most recent first):
//   nnodes u64
//   per node: counters 5 x u64 | nentries u64
//     per entry: gid u32 | use_count u32 | bytes u64

void TargetCache::save(std::ostream& os) const {
  using snapio::put;
  put<std::uint64_t>(os, shards_.size());
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    snapio::put_counters(os, sh.counters);
    put<std::uint64_t>(os, sh.lru.size());
    for (const Entry& e : sh.lru) {
      put<std::uint32_t>(os, e.gid);
      put<std::uint32_t>(os, e.use_count);
      put<std::uint64_t>(os, e.bytes);
    }
  }
}

void TargetCache::load(std::istream& is) {
  using snapio::get;
  const auto nnodes = get<std::uint64_t>(is);
  if (nnodes != shards_.size())
    throw CacheSnapshotError(
        "cache snapshot: target section has " + std::to_string(nnodes) +
        " node shards, this topology has " + std::to_string(shards_.size()));
  for (auto& sh : shards_) {
    const CacheCounters counters = snapio::get_counters(is);
    const auto nentries = get<std::uint64_t>(is);
    std::vector<Entry> entries(static_cast<std::size_t>(nentries));
    std::size_t total_bytes = 0;
    for (auto& e : entries) {  // most recently used first
      e.gid = get<std::uint32_t>(is);
      e.use_count = get<std::uint32_t>(is);
      e.bytes = get<std::uint64_t>(is);
      if (e.bytes > capacity_ - total_bytes)  // no sum that could wrap
        throw CacheSnapshotError(
            "cache snapshot: target entries on a node exceed this cache's "
            "budget of " + std::to_string(capacity_) + " bytes");
      total_bytes += e.bytes;
    }

    // Stage outside the lock, then swap in: a shard is either fully
    // replaced or (on a malformed snapshot) left exactly as it was.
    std::list<Entry> lru;
    std::unordered_map<std::uint32_t, std::list<Entry>::iterator> map;
    map.reserve(entries.size());
    for (const Entry& e : entries) {
      lru.push_back(e);
      if (!map.emplace(e.gid, std::prev(lru.end())).second)
        throw CacheSnapshotError("cache snapshot: duplicate target entry");
    }

    const std::scoped_lock lk(sh.mu);
    sh.lru = std::move(lru);
    sh.map = std::move(map);
    sh.used_bytes = total_bytes;
    sh.counters = counters;
  }
}

}  // namespace mera::cache
