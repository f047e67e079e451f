// meralignerd — the always-on multi-tenant alignment daemon.
//
// Usage:
//   meralignerd --targets contigs.fa --socket /run/mera.sock
//               [--k 51] [--ranks 8] [--ppn 4] [--S 1000] [--max-hits 32]
//               [--fragment-len 1024] [--sw-isa auto|...]
//               [--no-exact]
//               [--no-seed-cache] [--no-target-cache] [--no-aggregation]
//               [--no-permute] [--cache-admission]
//               [--shards K] [--shard-parallel J]
//               [--cache-dir DIR] [--load-cache] [--autosave SECS]
//               [--max-frame-bytes N] [--quiet]
//
// The index over --targets is built (or --load-cache warm-started) ONCE;
// the daemon then serves any number of concurrent client connections over
// the UNIX-domain socket, each one tenant's stream of FASTQ/SeqDB batches
// answered with SAM bytes (see src/serve/framing.hpp for the protocol and
// tools/meraligner_client.cpp for a reference client). All tenants share
// one warm cache pool (--cache-admission arbitrates residency) and — when
// sharded — ONE process-wide shard executor: --shard-parallel J is a global
// budget for the whole daemon, not a per-connection knob.
//
// Persistence: --cache-dir DIR snapshots the caches there on shutdown and,
// with --autosave SECS, periodically while serving; --load-cache warm-starts
// from the same directory at boot. Snapshots land atomically (tmp + rename),
// so even kill -9 mid-save leaves the previous good snapshot intact.
//
// Shutdown: SIGINT/SIGTERM drain gracefully — stop accepting, finish and
// flush in-flight batches, save caches, remove the socket. SIGPIPE is
// ignored; a vanished client only kills its own connection.
//
// Metrics: any client can send a MetricsReq frame and receive the process
// MetricsRegistry in Prometheus text format (meraligner_client --metrics -),
// including the per-tenant (`tenant=`) cache/SW/phase/serve series.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_snapshot.hpp"
#include "cli_util.hpp"
#include "core/align_session.hpp"
#include "exec/thread_pool.hpp"
#include "obs/log.hpp"
#include "serve/backend.hpp"
#include "serve/daemon.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

constexpr const char* kUsage =
    "meralignerd --targets contigs.fa --socket /run/mera.sock\n"
    "            [--k 51] [--ranks 8] [--ppn 4] [--S 1000] [--max-hits 32]\n"
    "            [--fragment-len 1024] [--sw-isa auto|scalar|sse2|avx2|avx512]\n"
    "            [--no-exact] [--no-seed-cache] [--no-target-cache]\n"
    "            [--no-aggregation] [--no-permute] [--cache-admission]\n"
    "            [--shards K] [--shard-parallel J]\n"
    "            [--cache-dir DIR] [--load-cache] [--autosave SECS]\n"
    "            [--max-frame-bytes N] [--quiet]\n"
    "\n"
    "Builds (or --load-cache warm-starts) the index ONCE, then serves many\n"
    "concurrent tenant query streams over the UNIX-domain socket: length-\n"
    "prefixed frames, FASTQ/SeqDB batch in, SAM bytes out (protocol in\n"
    "src/serve/framing.hpp; reference client: meraligner_client). Tenants\n"
    "share one warm cache pool and one process-wide shard executor\n"
    "(--shard-parallel J is a global budget). --cache-dir DIR saves cache\n"
    "snapshots there on shutdown (and every --autosave SECS while serving,\n"
    "atomically - a crash never loses the last good snapshot); --load-cache\n"
    "warm-starts from that directory. SIGINT/SIGTERM drain gracefully.\n"
    "Candidates align in pooled SIMD sweeps with traceback; --sw-isa pins\n"
    "the tier (scalar is the reference DP) and every tier emits the same\n"
    "SAM bytes.\n"
    "Clients can scrape the Prometheus metrics (incl. tenant= series) with\n"
    "a MetricsReq frame: meraligner_client --socket S --metrics -.";

}  // namespace

int main(int argc, char** argv) {
  using namespace mera;
  obs::Log::set_prefix("[meralignerd] ");
  const tools::Args args(argc, argv);
  if (args.has("help") || argc == 1) {
    std::puts(kUsage);
    return argc == 1 ? 2 : 0;
  }
  try {
    args.check_known({"targets", "socket", "k", "ranks", "ppn", "S",
                      "max-hits", "fragment-len", "sw-isa",
                      "no-exact", "no-seed-cache", "no-target-cache",
                      "no-aggregation", "no-permute", "cache-admission",
                      "shards", "shard-parallel", "cache-dir",
                      "load-cache", "autosave", "max-frame-bytes", "quiet",
                      "help"});
    if (args.has("quiet")) obs::Log::set_level(obs::LogLevel::kError);
    const std::vector<std::string> target_files = args.get_all("targets");
    if (target_files.empty())
      throw tools::UsageError("missing required flag --targets");
    const std::string socket_path = args.get("socket");
    if (socket_path.empty() || socket_path == "1")
      throw tools::UsageError("missing required flag --socket PATH");

    const auto [icfg, scfg] = tools::aligner_flags(args);

    serve::DaemonConfig dcfg;
    dcfg.socket_path = socket_path;
    dcfg.cache_dir = args.get("cache-dir");
    if (args.has("cache-dir") && dcfg.cache_dir.empty())
      throw tools::UsageError("--cache-dir expects a directory");
    if (args.has("autosave")) {
      if (dcfg.cache_dir.empty())
        throw tools::UsageError("--autosave requires --cache-dir");
      const long s = args.get_int("autosave", 0);
      if (s < 1)
        throw tools::UsageError("--autosave expects seconds >= 1");
      dcfg.autosave_interval_s = static_cast<double>(s);
    }
    if (args.has("max-frame-bytes")) {
      const long n = args.get_int("max-frame-bytes", 0);
      if (n < 1024)
        throw tools::UsageError("--max-frame-bytes must be >= 1024");
      dcfg.max_frame_bytes = static_cast<std::uint64_t>(n);
    }
    const bool load_cache = args.has("load-cache");
    if (load_cache && dcfg.cache_dir.empty())
      throw tools::UsageError("--load-cache requires --cache-dir");
    if (load_cache && !std::filesystem::is_directory(dcfg.cache_dir))
      throw tools::UsageError("--load-cache: " + dcfg.cache_dir +
                              " is not a directory");

    const int nranks = static_cast<int>(args.get_int("ranks", 8));
    const int ppn = static_cast<int>(args.get_int("ppn", 4));
    const pgas::Topology topo(nranks, ppn);
    pgas::Runtime build_rt(topo);

    dcfg.program.name = "meralignerd";
    dcfg.program.command_line = tools::command_line_of(argc, argv);

    const tools::ShardFlags shard_cfg =
        tools::shard_flags(args, target_files.size());

    // ---- build the warm engine once ----------------------------------------
    // The shard executor (when any) is created HERE, sized once, and handed
    // to the session: every tenant's batches share this one pool — J is a
    // process-wide budget, however many clients connect.
    std::optional<exec::ThreadPool> pool;
    std::optional<serve::Backend> backend;
    if (!shard_cfg.sharded) {
      auto ref =
          core::IndexedReference::build_from_fasta(build_rt, target_files[0],
                                                   icfg);
      obs::Log::info("index built: %zu entries, %.3f simulated s",
                     ref.index_entries(), ref.build_report().total_time_s());
      backend.emplace(std::move(ref), scfg);
    } else {
      auto ref = tools::build_sharded_reference(build_rt, args, icfg);
      obs::Log::info("sharded index built: %d shards, %u targets, %zu entries",
                     ref.num_shards(), ref.num_targets(), ref.index_entries());
      shard::ShardedSessionConfig sscfg{scfg, shard_cfg.parallel, nullptr};
      const int J = shard_cfg.parallel > 0
                        ? shard_cfg.parallel
                        : exec::ThreadPool::default_parallelism(
                              ref.num_shards(), nranks);
      if (J > 1) {
        pool.emplace(J);
        sscfg.pool = &*pool;
        obs::Log::info("global shard executor: %d workers (process-wide)", J);
      }
      backend.emplace(std::move(ref), sscfg);
    }
    if (load_cache) {
      try {
        backend->load_caches(build_rt, dcfg.cache_dir);
        obs::Log::info("warm caches loaded from %s", dcfg.cache_dir.c_str());
      } catch (const mera::cache::CacheSnapshotError& e) {
        throw tools::UsageError("--load-cache " + dcfg.cache_dir + ": " +
                                e.what());
      }
    }

    serve::Daemon daemon(std::move(*backend), topo, dcfg);
    serve::Daemon::install_signal_handlers(daemon);
    daemon.start();
    daemon.wait();
    return 0;
  } catch (const tools::UsageError& e) {
    std::fprintf(stderr, "meralignerd: error: %s\n\n%s\n", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meralignerd: error: %s\n", e.what());
    return 1;
  }
}
