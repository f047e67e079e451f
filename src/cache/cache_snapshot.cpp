#include "cache/cache_snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mera::cache {

namespace {

constexpr std::uint32_t kMagic = 0x4D435348;  // "MCSH" — mera cache snapshot
// 2: striped seed-cache section; 3: same layout, but cached hit lists are
// in the seed index's canonical run order (v2 lists are in arrival order);
// 4: the seed section is laid out per set-associative set; 5: the header
// carries each cache's capacity.
constexpr std::uint32_t kVersion = 5;
constexpr std::uint32_t kFlagSeedSection = 1u << 0;
constexpr std::uint32_t kFlagTargetSection = 1u << 1;

void put_meta(std::ostream& os, const SnapshotMeta& m) {
  using snapio::put;
  put<std::int32_t>(os, m.k);
  put<std::int32_t>(os, m.nranks);
  put<std::int32_t>(os, m.ppn);
  put<std::int32_t>(os, m.nnodes);
  put<std::uint64_t>(os, m.max_hits_per_seed);
  put<double>(os, m.cost_model.node_latency_s);
  put<double>(os, m.cost_model.node_bandwidth_Bps);
  put<double>(os, m.cost_model.net_latency_s);
  put<double>(os, m.cost_model.net_bandwidth_Bps);
  put<double>(os, m.cost_model.atomic_extra_s);
  put<std::uint64_t>(os, m.reference_fingerprint);
}

SnapshotMeta get_meta(std::istream& is) {
  using snapio::get;
  SnapshotMeta m;
  m.k = get<std::int32_t>(is);
  m.nranks = get<std::int32_t>(is);
  m.ppn = get<std::int32_t>(is);
  m.nnodes = get<std::int32_t>(is);
  m.max_hits_per_seed = get<std::uint64_t>(is);
  m.cost_model.node_latency_s = get<double>(is);
  m.cost_model.node_bandwidth_Bps = get<double>(is);
  m.cost_model.net_latency_s = get<double>(is);
  m.cost_model.net_bandwidth_Bps = get<double>(is);
  m.cost_model.atomic_extra_s = get<double>(is);
  m.reference_fingerprint = get<std::uint64_t>(is);
  return m;
}

void check_meta(const std::string& path, const SnapshotMeta& found,
                const SnapshotMeta& expect) {
  const auto fail = [&](const std::string& what) {
    throw CacheSnapshotError("cache snapshot " + path + ": " + what +
                             " — it was recorded against a different "
                             "index/session and cannot be warm-loaded here");
  };
  if (found.k != expect.k)
    fail("seed length mismatch (snapshot k=" + std::to_string(found.k) +
         ", session k=" + std::to_string(expect.k) + ")");
  if (found.nranks != expect.nranks || found.ppn != expect.ppn ||
      found.nnodes != expect.nnodes)
    fail("topology mismatch (snapshot " + std::to_string(found.nranks) + "x" +
         std::to_string(found.ppn) + ", session " +
         std::to_string(expect.nranks) + "x" + std::to_string(expect.ppn) +
         ")");
  if (found.max_hits_per_seed != expect.max_hits_per_seed)
    fail("max-hits mismatch (snapshot seed-hit lists were clipped to " +
         std::to_string(found.max_hits_per_seed) + ", session expects " +
         std::to_string(expect.max_hits_per_seed) + ")");
  const pgas::CostModel& a = found.cost_model;
  const pgas::CostModel& b = expect.cost_model;
  if (a.node_latency_s != b.node_latency_s ||
      a.node_bandwidth_Bps != b.node_bandwidth_Bps ||
      a.net_latency_s != b.net_latency_s ||
      a.net_bandwidth_Bps != b.net_bandwidth_Bps ||
      a.atomic_extra_s != b.atomic_extra_s)
    fail("cost-model mismatch");
  if (found.reference_fingerprint != expect.reference_fingerprint)
    fail("reference fingerprint mismatch");
}

}  // namespace

void save_caches(const std::string& path, const SnapshotMeta& meta,
                 const SeedIndexCache* seed, const TargetCache* target) {
  // Serialize the payload first: the header needs its size and checksum, and
  // buffering keeps each cache's per-shard lock hold time to pure memory
  // writes. Each present section is length-prefixed so a loader can skip a
  // cache its session does not run.
  std::ostringstream payload(std::ios::binary);
  const auto put_section = [&payload](const auto& cache) {
    std::ostringstream section(std::ios::binary);
    cache.save(section);
    const std::string s = section.str();
    snapio::put<std::uint64_t>(payload, s.size());
    payload.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  if (seed) put_section(*seed);
  if (target) put_section(*target);
  const std::string bytes = payload.str();

  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec)
      throw CacheSnapshotError("cache snapshot: cannot create directory " +
                               parent.string() + ": " + ec.message());
  }
  // Write to a sibling temp file and rename over the final path: rename(2)
  // within one directory is atomic, so a crash or kill -9 mid-save leaves the
  // previous good snapshot intact instead of a truncated file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw CacheSnapshotError("cache snapshot " + tmp +
                               ": cannot open for writing");
    using snapio::put;
    put<std::uint32_t>(out, kMagic);
    put<std::uint32_t>(out, kVersion);
    put_meta(out, meta);
    std::uint32_t flags = 0;
    if (seed) flags |= kFlagSeedSection;
    if (target) flags |= kFlagTargetSection;
    put<std::uint32_t>(out, flags);
    put<std::uint64_t>(out, seed ? seed->capacity_per_node() : 0);
    put<std::uint64_t>(out, target ? target->capacity_bytes_per_node() : 0);
    put<std::uint64_t>(out, bytes.size());
    put<std::uint64_t>(out, snapio::fnv1a(bytes.data(), bytes.size()));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw CacheSnapshotError("cache snapshot " + tmp + ": write failed");
    }
  }
  std::error_code ec2;
  std::filesystem::rename(tmp, path, ec2);
  if (ec2) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw CacheSnapshotError("cache snapshot " + path +
                             ": cannot rename temp file into place: " +
                             ec2.message());
  }
}

void load_caches(const std::string& path, const SnapshotMeta& expect,
                 SeedIndexCache* seed, TargetCache* target) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw CacheSnapshotError("cache snapshot " + path +
                             ": cannot open (missing file?)");
  using snapio::get;
  std::uint32_t magic = 0, version = 0;
  try {
    magic = get<std::uint32_t>(in);
    version = get<std::uint32_t>(in);
  } catch (const CacheSnapshotError&) {
    throw CacheSnapshotError("cache snapshot " + path +
                             ": truncated header — not a cache snapshot");
  }
  if (magic != kMagic)
    throw CacheSnapshotError("cache snapshot " + path +
                             ": bad magic — not a cache snapshot file");
  if (version != kVersion)
    throw CacheSnapshotError("cache snapshot " + path +
                             ": unsupported version " + std::to_string(version));
  SnapshotMeta found;
  std::uint32_t flags = 0;
  std::uint64_t seed_capacity = 0, target_capacity = 0;
  std::uint64_t payload_size = 0, checksum = 0;
  try {
    found = get_meta(in);
    flags = get<std::uint32_t>(in);
    seed_capacity = get<std::uint64_t>(in);
    target_capacity = get<std::uint64_t>(in);
    payload_size = get<std::uint64_t>(in);
    checksum = get<std::uint64_t>(in);
  } catch (const CacheSnapshotError&) {
    throw CacheSnapshotError("cache snapshot " + path + ": truncated header");
  }
  check_meta(path, found, expect);
  // A cache restores exactly or not at all: a section saved by a cache of
  // another capacity is refused, like any other mismatch.
  const auto check_capacity = [&](const char* cache, std::uint64_t saved,
                                  std::uint64_t runs, const char* unit) {
    if (saved != runs)
      throw CacheSnapshotError(
          "cache snapshot " + path + ": " + cache +
          " cache capacity mismatch (snapshot " + std::to_string(saved) +
          unit + ", session " + std::to_string(runs) + unit +
          ") — it can only be restored into a cache of the same capacity");
  };
  if ((flags & kFlagSeedSection) && seed)
    check_capacity("seed", seed_capacity, seed->capacity_per_node(),
                   " entries per node");
  if ((flags & kFlagTargetSection) && target)
    check_capacity("target", target_capacity,
                   target->capacity_bytes_per_node(), " bytes per node");

  // The size field lives in the header, outside the payload checksum — a
  // damaged length must be caught by arithmetic, not by a failed multi-GB
  // allocation. The payload is exactly the rest of the file.
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  const auto header_size = static_cast<std::uint64_t>(in.tellg());
  if (ec || file_size < header_size ||
      payload_size != file_size - header_size)
    throw CacheSnapshotError("cache snapshot " + path +
                             ": payload size disagrees with the file "
                             "(truncated or damaged header)");
  std::string bytes(static_cast<std::size_t>(payload_size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::uint64_t>(in.gcount()) != payload_size)
    throw CacheSnapshotError("cache snapshot " + path + ": truncated payload");
  if (snapio::fnv1a(bytes.data(), bytes.size()) != checksum)
    throw CacheSnapshotError("cache snapshot " + path +
                             ": payload checksum mismatch (corrupt file)");

  // Validated end to end; only now touch the caches. Each section carries
  // its byte length, so one this session does not run is skipped, not
  // deserialized.
  std::istringstream payload(bytes, std::ios::binary);
  const auto apply_section = [&](auto* cache) {
    const auto n = snapio::get<std::uint64_t>(payload);
    const auto pos = static_cast<std::uint64_t>(payload.tellg());
    if (pos + n > bytes.size())
      throw CacheSnapshotError("cache snapshot " + path +
                               ": section length out of range");
    if (cache) {
      cache->load(payload);
      if (static_cast<std::uint64_t>(payload.tellg()) != pos + n)
        throw CacheSnapshotError("cache snapshot " + path +
                                 ": section length disagrees with contents");
    } else {
      payload.seekg(static_cast<std::streamoff>(pos + n));
    }
  };
  if (flags & kFlagSeedSection) apply_section(seed);
  if (flags & kFlagTargetSection) apply_section(target);
}

std::string shard_snapshot_path(const std::string& dir, int s) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04d.mcache", s);
  return dir + "/" + name;
}

}  // namespace mera::cache
