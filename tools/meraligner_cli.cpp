// meraligner — command-line front end for the session-based pipeline.
//
// Usage:
//   meraligner --targets contigs.fa --reads batch1.{fastq,sdb}
//              [--reads batch2.fastq ...] [--out out.sam] [--k 51]
//              [--ranks 8] [--ppn 4] [--S 1000] [--max-hits 32]
//              [--fragment-len 1024] [--sw-isa auto|...|help]
//              [--no-exact]
//              [--no-seed-cache] [--no-target-cache] [--no-aggregation]
//              [--no-permute] [--stats]
//              [--shards K] [--shard-parallel J]
//              [--save-cache DIR] [--load-cache DIR] [--cache-admission]
//              [--trace FILE.json] [--metrics FILE]
//              [--metrics-format json|prom] [--quiet]
//
// The distributed seed index is built ONCE from --targets; every --reads
// batch is then streamed against it through one AlignSession, so batch N>1
// pays no index construction. With --out, all batches stream into a single
// SAM file (header once). Unknown flags are an error (exit 2), not ignored.
//
// Sharded references: pass --shards K to split one --targets collection into
// K balanced per-runtime index shards (planned by cost-model seed weight),
// or pass --targets repeatedly for one shard per FASTA. Batches then stream
// through a ShardedAlignSession that reconciles per-shard hits into one SAM
// with global target ids — the "GenBank-scale" screening layout where no
// single runtime holds the whole index.
// --shard-parallel J drives J shards concurrently per batch (default: auto,
// min(K, hardware threads / ranks)); output is bit-identical at every J.
//
// Batch streaming is double-buffered: while batch N aligns, batch N+1 loads
// into memory on a background worker (FASTQ parsed, SeqDB read). The CLI
// writes no file next to its inputs.
//
// Cache persistence: --save-cache DIR snapshots the session's software
// caches (seed + target, entries and counters) after the last batch;
// --load-cache DIR warm-starts a later invocation from such a snapshot, so
// a restarted screening service skips the remote lookups the previous run
// already paid for. Snapshots are fingerprinted against the reference,
// topology and cost model — loading a mismatched or damaged snapshot is a
// usage error (exit 2), not a silent cold start. Warm output is
// byte-for-byte the cold output; only the cache hit rates and modeled
// communication seconds change. --cache-admission turns on the
// eviction-aware admission policy for multi-tenant batch streams.
//
// Observability: --trace FILE.json records a Chrome Trace Event timeline
// (phases per rank, shard dispatch, prefetch loads/stalls — open in
// chrome://tracing or ui.perfetto.dev); --metrics FILE dumps the process
// metrics registry (JSON by default, Prometheus text with --metrics-format
// prom). Both change seconds, never bytes: SAM output is bit-identical with
// observability on or off. --quiet suppresses the informational stderr lines
// (usage errors still print).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_snapshot.hpp"
#include "cache/seed_cache.hpp"
#include "cli_util.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

constexpr const char* kUsage =
    "meraligner --targets contigs.fa --reads batch1.{fastq,sdb}\n"
    "           [--reads batch2.fastq ...] [--out out.sam] [--k 51]\n"
    "           [--ranks 8] [--ppn 4] [--S 1000] [--max-hits 32]\n"
    "           [--fragment-len 1024] [--sw-isa auto|scalar|sse2|avx2|avx512|help]\n"
    "           [--no-exact] [--no-seed-cache] [--no-target-cache]\n"
    "           [--no-aggregation] [--no-permute] [--stats]\n"
    "           [--shards K] [--shard-parallel J]\n"
    "           [--save-cache DIR] [--load-cache DIR] [--cache-admission]\n"
    "           [--trace FILE.json] [--metrics FILE]\n"
    "           [--metrics-format json|prom] [--quiet]\n"
    "\n"
    "The index over --targets is built once; each --reads batch is aligned\n"
    "against it in order, streaming SAM into --out (one header, all batches).\n"
    "While a batch aligns, the next one loads in the background.\n"
    "--shards K splits one target collection into K balanced index shards;\n"
    "repeating --targets makes one shard per FASTA. Either way the batches\n"
    "stream through every shard and come out as one reconciled SAM.\n"
    "--shard-parallel J aligns J shards concurrently per batch (default:\n"
    "auto = min(K, hardware threads / ranks)); same bytes at every J.\n"
    "--save-cache DIR snapshots the software caches after the last batch;\n"
    "--load-cache DIR warm-starts from such a snapshot (same reference,\n"
    "topology and cost model required). Warm runs emit the same SAM bytes\n"
    "as cold ones — only the remote-lookup work changes.\n"
    "Seed extension pools candidates across reads into query-length-class\n"
    "buckets and aligns a bucket in one inter-candidate SIMD sweep with\n"
    "traceback once it fills the tier's lanes. --sw-isa pins the dispatch\n"
    "tier: the default auto picks the widest the CPU supports, scalar runs\n"
    "the reference DP per candidate. Every tier emits bit-identical SAM.\n"
    "--sw-isa help prints the tiers this build and CPU actually support,\n"
    "then exits.\n"
    "--trace FILE.json records a Chrome Trace Event timeline (open in\n"
    "chrome://tracing or ui.perfetto.dev); --metrics FILE dumps the metrics\n"
    "registry as JSON (--metrics-format prom for Prometheus text). Neither\n"
    "changes a SAM byte. --quiet silences informational stderr lines.";

void print_batch_line(std::size_t b, std::size_t nbatches,
                      const std::string& name, const mera::core::PipelineStats& s,
                      double time_s) {
  mera::obs::Log::info(
      "batch %zu/%zu (%s): %llu/%llu reads aligned "
      "(%.1f%%), %llu alignments, %.3f simulated s (index reused)",
      b + 1, nbatches, name.c_str(),
      static_cast<unsigned long long>(s.reads_aligned),
      static_cast<unsigned long long>(s.reads_processed),
      100.0 * s.aligned_fraction(),
      static_cast<unsigned long long>(s.alignments_reported), time_s);
}

void print_prefetch_line(double wall_s, double load_wall_s, double stall_s) {
  mera::obs::Log::info(
      "prefetch: %.3f real s end-to-end, %.3f s of "
      "batch loading overlapped with aligning (%.3f s stalled)",
      wall_s, load_wall_s, stall_s);
}

/// Warm-load failures are invocation errors (exit 2 + usage): the user
/// pointed --load-cache at a snapshot that does not exist or does not match
/// this reference/topology/cost model.
template <typename SessionT>
void load_caches_or_usage_error(SessionT& session, const mera::pgas::Runtime& rt,
                                const std::string& dir,
                                const std::string& path) {
  try {
    session.load_caches(rt, path);
  } catch (const mera::cache::CacheSnapshotError& e) {
    throw mera::tools::UsageError("--load-cache " + dir + ": " + e.what());
  }
  mera::obs::Log::info("warm caches loaded from %s", dir.c_str());
}

void print_total_line(const mera::core::PipelineStats& total, double index_s,
                      double align_s) {
  mera::obs::Log::info(
      "total: %llu/%llu reads aligned (%.1f%%), "
      "%llu alignments, %.3f simulated s end-to-end "
      "(%.3f s index + %.3f s aligning)",
      static_cast<unsigned long long>(total.reads_aligned),
      static_cast<unsigned long long>(total.reads_processed),
      100.0 * total.aligned_fraction(),
      static_cast<unsigned long long>(total.alignments_reported),
      index_s + align_s, index_s, align_s);
}

/// --stats epilogue: end-of-run cache counter totals (cumulative over every
/// batch, warm-loaded history included).
void print_cache_totals(const mera::cache::CacheCounters& seed,
                        const mera::cache::CacheCounters& target) {
  const auto line = [](const char* name, const mera::cache::CacheCounters& c) {
    std::fprintf(stderr,
                 "%-20s hits %llu  misses %llu  evictions %llu  "
                 "admission rejects %llu\n",
                 name, static_cast<unsigned long long>(c.hits),
                 static_cast<unsigned long long>(c.misses),
                 static_cast<unsigned long long>(c.evictions),
                 static_cast<unsigned long long>(c.admission_rejects));
  };
  std::fprintf(stderr, "cache totals (end of run)\n");
  line("  seed cache", seed);
  line("  target cache", target);
}

/// End-of-run observability artifacts. Failures to write are runtime errors
/// (exit 1): the alignment already happened; only the telemetry is at stake.
void write_observability_files(const std::string& trace_path,
                               const std::string& metrics_path,
                               const std::string& metrics_format) {
  namespace obs = mera::obs;
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (!f)
      throw std::runtime_error("--trace: cannot write '" + trace_path + "'");
    obs::Tracer::global().write_chrome_trace(f);
    // A full disk fails the write, not the open — check after flushing, or
    // "trace written" would report success over a truncated file.
    f.flush();
    if (!f)
      throw std::runtime_error("--trace: write to '" + trace_path +
                               "' failed (disk full?)");
    obs::Log::info(
        "trace written to %s (open in chrome://tracing or ui.perfetto.dev)",
        trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (!f)
      throw std::runtime_error("--metrics: cannot write '" + metrics_path +
                               "'");
    if (metrics_format == "prom")
      obs::MetricsRegistry::global().write_prometheus(f);
    else
      obs::MetricsRegistry::global().write_json(f);
    f.flush();
    if (!f)
      throw std::runtime_error("--metrics: write to '" + metrics_path +
                               "' failed (disk full?)");
    obs::Log::info("metrics written to %s (%s)", metrics_path.c_str(),
                   metrics_format.c_str());
  }
}

/// The validated flags every --reads stream needs besides its session.
struct StreamFlags {
  std::vector<std::string> batches;  ///< --reads, in command-line order
  std::string out;                   ///< --out; empty = count only
  std::string load_cache_dir;
  std::string save_cache_dir;
  bool stats = false;
  mera::core::SamProgram pg;
};

/// Everything after the reference is built, for a plain or a sharded
/// session: warm-load, the double-buffered --reads stream into --out,
/// save, the total line and the --stats epilogue.
template <typename Session>
void stream_reads(Session& session, mera::pgas::Runtime& rt,
                  const StreamFlags& f) {
  namespace core = mera::core;
  constexpr bool kSharded =
      std::is_same_v<Session, mera::shard::ShardedAlignSession>;
  // A plain session snapshots into one file in DIR, a sharded one writes
  // one file per shard into DIR.
  const auto snapshot_path = [](const std::string& dir) {
    if constexpr (kSharded) return dir;
    else return dir + "/" + mera::cache::kSessionSnapshotFile;
  };
  const auto& ref = session.reference();
  if (!f.load_cache_dir.empty())
    load_caches_or_usage_error(session, rt, f.load_cache_dir,
                               snapshot_path(f.load_cache_dir));
  std::optional<core::SamFileSink> sam;
  core::CountingSink counter;
  if (!f.out.empty()) {
    if constexpr (kSharded)
      sam.emplace(f.out, ref.sam_targets(), rt.nranks(), f.pg);
    else
      sam.emplace(f.out, ref, f.pg);
  }
  core::AlignmentSink& sink = sam ? static_cast<core::AlignmentSink&>(*sam)
                                  : static_cast<core::AlignmentSink&>(counter);

  // Batch N+1 loads while batch N aligns; per-batch lines print live as
  // each batch completes.
  core::PipelineStats total;
  double align_s = 0.0, align_parallel_s = 0.0;
  const auto stream = session.align_batch_files(
      rt, f.batches, sink, {}, [&](std::size_t b, const auto& res) {
        align_s += res.total_time_s();
        if constexpr (kSharded) align_parallel_s += res.time_parallel_s();
        total += res.stats;
        print_batch_line(b, f.batches.size(), f.batches[b], res.stats,
                         res.total_time_s());
        if (f.stats) {
          res.report.print(std::cerr);
          res.stats.print(std::cerr);
        }
      });
  print_prefetch_line(stream.wall_s, stream.load_wall_s, stream.stall_s);
  if (!f.save_cache_dir.empty()) {
    session.save_caches(rt, snapshot_path(f.save_cache_dir));
    mera::obs::Log::info("caches saved to %s", f.save_cache_dir.c_str());
  }
  print_total_line(total, ref.build_report().total_time_s(), align_s);
  if constexpr (kSharded)
    mera::obs::Log::info(
        "per-runtime view (%d shards in parallel): "
        "%.3f s index + %.3f s aligning",
        ref.num_shards(), ref.build_time_parallel_s(), align_parallel_s);
  if (f.stats) {
    mera::cache::CacheCounters seed, target;
    if constexpr (kSharded) {
      for (int s = 0; s < session.num_shards(); ++s) {
        seed += session.shard_session(s).seed_cache_counters();
        target += session.shard_session(s).target_cache_counters();
      }
    } else {
      seed = session.seed_cache_counters();
      target = session.target_cache_counters();
    }
    print_cache_totals(seed, target);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mera;
  obs::Log::set_prefix("[meraligner] ");
  const tools::Args args(argc, argv);
  // --sw-isa help: answer "which tiers can this build and CPU actually run"
  // without requiring any other flag, then exit.
  if (args.get("sw-isa") == "help") {
    std::fputs(align::isa_support_summary().c_str(), stdout);
    return 0;
  }
  if (args.has("help") || argc == 1) {
    std::puts(kUsage);
    return argc == 1 ? 2 : 0;
  }
  try {
    args.check_known({"targets", "reads", "out", "k", "ranks", "ppn", "S",
                      "max-hits", "fragment-len", "sw-isa",
                      "no-exact", "no-seed-cache", "no-target-cache",
                      "no-aggregation", "no-permute", "stats", "shards",
                      "shard-parallel", "save-cache",
                      "load-cache", "cache-admission", "trace", "metrics",
                      "metrics-format", "quiet", "help"});
    if (args.has("quiet")) obs::Log::set_level(obs::LogLevel::kError);
    const std::string trace_path = args.get("trace");
    if (args.has("trace") && (trace_path.empty() || trace_path == "1"))
      throw tools::UsageError("--trace expects a file path");
    const std::string metrics_path = args.get("metrics");
    if (args.has("metrics") && (metrics_path.empty() || metrics_path == "1"))
      throw tools::UsageError("--metrics expects a file path");
    if (args.has("metrics-format") && !args.has("metrics"))
      throw tools::UsageError("--metrics-format requires --metrics");
    const std::string metrics_format = args.get("metrics-format", "json");
    if (metrics_format != "json" && metrics_format != "prom")
      throw tools::UsageError("--metrics-format expects json|prom, got '" +
                              metrics_format + "'");
    // Enable before the index build so its phases land on the timeline too.
    if (!trace_path.empty()) obs::Tracer::global().enable();
    const std::vector<std::string> target_files = args.get_all("targets");
    if (target_files.empty())
      throw tools::UsageError("missing required flag --targets");
    StreamFlags run;
    run.batches = args.get_all("reads");
    if (run.batches.empty())
      throw tools::UsageError("missing required flag --reads");
    run.out = args.get("out");

    const auto [icfg, scfg] = tools::aligner_flags(args);

    run.save_cache_dir = args.get("save-cache");
    run.load_cache_dir = args.get("load-cache");
    if (args.has("save-cache") && run.save_cache_dir.empty())
      throw tools::UsageError("--save-cache expects a directory");
    if (args.has("load-cache") && run.load_cache_dir.empty())
      throw tools::UsageError("--load-cache expects a directory");
    if (!run.load_cache_dir.empty() &&
        !std::filesystem::is_directory(run.load_cache_dir))
      throw tools::UsageError("--load-cache: " + run.load_cache_dir +
                              " is not a directory");
    run.stats = args.has("stats");
    run.pg.name = "meraligner";
    run.pg.command_line = tools::command_line_of(argc, argv);

    const int nranks = static_cast<int>(args.get_int("ranks", 8));
    const int ppn = static_cast<int>(args.get_int("ppn", 4));
    pgas::Runtime rt(pgas::Topology(nranks, ppn));

    const tools::ShardFlags shard_cfg =
        tools::shard_flags(args, target_files.size());

    if (!shard_cfg.sharded) {
      const auto ref =
          core::IndexedReference::build_from_fasta(rt, target_files[0], icfg);
      obs::Log::info(
          "index built: %zu entries, %.3f simulated s "
          "(amortized over %zu batch%s)",
          ref.index_entries(), ref.build_report().total_time_s(),
          run.batches.size(), run.batches.size() == 1 ? "" : "es");
      if (run.stats) ref.build_report().print(std::cerr);
      core::AlignSession session(ref, scfg);
      stream_reads(session, rt, run);
    } else {
      const auto ref = tools::build_sharded_reference(rt, args, icfg);
      obs::Log::info(
          "sharded index built: %d shards, %u targets, "
          "%zu entries; build %.3f simulated s serial, %.3f s if each "
          "shard had its own runtime",
          ref.num_shards(), ref.num_targets(), ref.index_entries(),
          ref.build_time_serial_s(), ref.build_time_parallel_s());
      for (int s = 0; s < ref.num_shards(); ++s)
        obs::Log::info(
            "  shard %d: %u targets, %zu entries, "
            "build %.3f simulated s",
            s, ref.shard(s).targets().num_targets(),
            ref.shard(s).index_entries(),
            ref.shard(s).build_report().total_time_s());
      if (run.stats) ref.build_report().print(std::cerr);
      shard::ShardedAlignSession session(
          ref, shard::ShardedSessionConfig{scfg, shard_cfg.parallel});
      obs::Log::info(
          "shard executor: %d of %d shards in parallel "
          "per batch (%s)",
          session.effective_parallelism(rt.nranks()), session.num_shards(),
          shard_cfg.parallel > 0 ? "--shard-parallel" : "auto");
      stream_reads(session, rt, run);
    }
    write_observability_files(trace_path, metrics_path, metrics_format);
    return 0;
  } catch (const tools::UsageError& e) {
    std::fprintf(stderr, "meraligner: error: %s\n\n%s\n", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meraligner: error: %s\n", e.what());
    return 1;
  }
}
