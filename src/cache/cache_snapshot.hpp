// Versioned on-disk snapshots of the session software caches (warm start).
//
// The paper's Section IV caches are what make repeated screening cheap, but
// they are per-process: a restarted screening service pays every remote seed
// lookup and target fetch cold again. A snapshot file captures both caches —
// every entry, its per-entry hit count, and the cumulative CacheCounters —
// so a second process can start exactly as warm as the first one ended.
// Persistence changes seconds, never bytes: a warm-started session emits the
// same records and SAM stream a cold one does, it just skips the remote work
// (tests/test_cache_persist.cpp pins this for K in {1,2,4} shards on the
// scalar and auto SW tiers).
//
// A snapshot is only meaningful against the exact index it was filled from:
// cached seed-hit lists embed the reference's fragment/target ids, and the
// counters embed a cost model. The header therefore carries the seed length
// k, the topology, the full LogGP cost model and a fingerprint of the
// reference (names, lengths and packed bases of every target), and load
// refuses anything that does not match — a snapshot can never be loaded
// against the wrong index. It also carries each cache's capacity: a cache
// is restored exactly, so a section saved at another capacity is refused
// too. The payload is length- and checksum-guarded, so truncated or
// corrupted files are rejected rather than half-applied.
//
// File layout (fixed-width little-endian integers, host-endian doubles —
// snapshots are node-local state, not an interchange format):
//
//   magic u32 | version u32 | k i32 | nranks i32 | ppn i32 | nnodes i32
//   max_hits u64 | cost model 5 x f64 | reference fingerprint u64
//   flags u32 (bit0 seed section, bit1 target section)
//   seed capacity u64 (entries per node) | target capacity u64 (bytes per
//   node), each 0 when its section is absent
//   payload size u64 | payload FNV-1a u64 | payload bytes...
//
// The payload is one length-prefixed section per present cache — `byte
// length u64 | the cache's own save() stream` (see SeedIndexCache::save /
// TargetCache::save for the per-shard layout) — so a loader can skip a
// section its session does not run without deserializing it. The seed
// section is laid out per set of the set-associative cache (its hand,
// reference bits and ways); its hit lists come from the canonically ordered
// seed index, so a warm start gives the same bytes as a cold run. Files of
// versions 1-4 (earlier seed-section layouts, and headers without the
// capacities) are refused.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"
#include "pgas/cost_model.hpp"

namespace mera::cache {

/// A snapshot file that cannot be applied: unreadable, truncated, corrupt,
/// or recorded against a different reference/topology/cost model or by a
/// cache of another capacity.
class CacheSnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a snapshot is validated against. Sessions fill this from their
/// reference and runtime; load_caches refuses any mismatch.
struct SnapshotMeta {
  int k = 0;        ///< seed length the cached hit lists were looked up with
  int nranks = 0;
  int ppn = 0;
  int nnodes = 0;   ///< cache shards are per node
  /// Seed-hit lists are stored already clipped to the saving session's
  /// max_hits_per_seed, so serving them to a session with a LARGER limit
  /// would silently shorten its candidate lists — a bytes-changing
  /// mismatch, rejected like any other.
  std::uint64_t max_hits_per_seed = 0;
  pgas::CostModel cost_model{};
  /// Fingerprint of the reference the cached ids point into
  /// (core::IndexedReference::fingerprint()).
  std::uint64_t reference_fingerprint = 0;
};

/// Write one session's caches to `path`. Null cache pointers mean "this
/// session runs without that cache"; the section is marked absent. The write
/// is atomic: bytes go to `<path>.tmp` which is renamed over `path` only
/// once complete, so a crash (or kill -9) mid-save leaves the previous good
/// snapshot intact — an autosaving daemon never loses warm state to a
/// truncated file. Throws CacheSnapshotError when the file cannot be
/// written; the temp file is removed on failure.
void save_caches(const std::string& path, const SnapshotMeta& meta,
                 const SeedIndexCache* seed, const TargetCache* target);

/// Validate `path` against `expect` and replace the given caches' contents
/// with the snapshot. A section present in the file but disabled in this
/// session (null pointer) is skipped; a section absent from the file leaves
/// that cache untouched (cold). Throws CacheSnapshotError on any mismatch
/// (the meta, or the capacity of a cache whose section is applied),
/// truncation or corruption. Every rejection reachable from a file that the
/// paired writer produced (missing, mismatched meta, truncated, bit-flipped)
/// is detected before the caches are touched; a crafted checksum-valid
/// payload that fails a structural check mid-apply can leave earlier
/// node-shards/sections replaced — harmless, since cache contents affect
/// seconds, never bytes.
void load_caches(const std::string& path, const SnapshotMeta& expect,
                 SeedIndexCache* seed, TargetCache* target);

/// Canonical file name of shard `s` inside a snapshot directory — the
/// sharded session composes one snapshot per shard the same way
/// ShardedReference composes one IndexedReference per shard.
std::string shard_snapshot_path(const std::string& dir, int s);

/// File name the single-index paths (plain AlignSession via the CLI) use
/// inside a snapshot directory.
inline constexpr const char* kSessionSnapshotFile = "session.mcache";

// --- raw stream primitives shared by the cache save/load implementations ---
namespace snapio {

template <typename T>
void put(std::ostream& os, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw CacheSnapshotError("cache snapshot: truncated stream");
  return v;
}

/// FNV-1a, the payload checksum.
inline std::uint64_t fnv1a(const char* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ULL) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

inline void put_counters(std::ostream& os, const CacheCounters& c) {
  put<std::uint64_t>(os, c.hits);
  put<std::uint64_t>(os, c.misses);
  put<std::uint64_t>(os, c.insertions);
  put<std::uint64_t>(os, c.evictions);
  put<std::uint64_t>(os, c.admission_rejects);
}

inline CacheCounters get_counters(std::istream& is) {
  CacheCounters c;
  c.hits = get<std::uint64_t>(is);
  c.misses = get<std::uint64_t>(is);
  c.insertions = get<std::uint64_t>(is);
  c.evictions = get<std::uint64_t>(is);
  c.admission_rejects = get<std::uint64_t>(is);
  return c;
}

}  // namespace snapio

}  // namespace mera::cache
