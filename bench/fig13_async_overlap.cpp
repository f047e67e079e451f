// Executor overlap: parallel shard execution + double-buffered batch
// streaming (exec::ThreadPool / core::BatchPrefetcher).
//
// The paper's speed comes from overlapping independent work across UPC
// threads. This bench measures the two overlap axes the reproduction adds on
// top of the per-rank SPMD parallelism:
//
//   A. parallel shards — a K-shard screen dispatches its K per-shard
//      align_batch calls onto a worker pool (ShardedSessionConfig::
//      shard_parallelism = J). Records are reconciled into the same
//      deterministic stream at every J, so wall-clock time is the only
//      thing J changes. Expected: near-linear speedup in J up to the
//      machine's core count (runtimes here are single-rank, so the shard
//      axis is the only concurrency).
//
//   B. batch prefetch — a stream of reads-batch files aligned with
//      align_batch_files(), loading batch N+1 while batch N aligns, against
//      this bench's own per-file loop (load_read_batch, then align_batch).
//      The sync/prefetch pair differs only in overlap: the prefetch run's
//      stall time collapses while its load time hides inside aligning.
//
// Both parts abort if the overlapped configuration changes any result
// count — overlap must change seconds, never bytes.
//
// Output: paper-style stdout rows + a machine-readable BENCH_fig13.json
// (bench::JsonSummary) for CI perf-trajectory archiving. Pass --smoke for
// the CI-sized workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/indexed_reference.hpp"
#include "seq/fastq.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

/// Total CPU seconds booked by every rank across every phase — the "work"
/// that a parallel executor packs into less wall time.
double cpu_sum_s(const mera::pgas::PhaseReport& report) {
  double total = 0.0;
  for (const auto& phase : report.phases)
    for (const double cpu : phase.cpu_s) total += cpu;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mera;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

  bench::print_header(
      "Async overlap — parallel shard execution + double-buffered batches",
      "Section III/IV: overlapping independent work across threads");
  bench::JsonSummary json(
      "fig13", "parallel shard execution + double-buffered batch streaming");
  const bench::StopWatch bench_watch;  // measured via the shared obs clock

  const auto w = bench::make_workload(
      bench::human_like(smoke ? 400'000 : 1'500'000, smoke ? 2.0 : 3.0));
  std::printf("workload: %zu contigs, %zu reads%s\n\n", w.contigs.size(),
              w.reads.size(), smoke ? " (smoke)" : "");

  core::IndexConfig icfg;
  icfg.k = 31;
  core::SessionConfig scfg;
  scfg.exact_match = false;       // per-shard shortcut would skew comparison
  scfg.max_hits_per_seed = 4096;  // no per-shard truncation

  // ---- A: parallel shards --------------------------------------------------
  // Single-rank runtimes: the K shards are the only concurrency, so the
  // J-axis speedup is undiluted by rank threads.
  constexpr int kShards = 4;
  std::printf("A. K=%d sharded screen, J shards driven in parallel\n", kShards);
  std::printf("%4s %12s %14s %14s %12s %10s\n", "J", "wall(s)", "cpu sum(s)",
              "model ser(s)", "speedup", "alignments");

  pgas::Runtime rt(pgas::Topology(1, 1));
  const auto sharded_ref =
      shard::ShardedReference::build(rt, w.contigs, kShards, icfg);
  double wall_j1 = 0.0;
  std::uint64_t alignments_j1 = 0, sw_calls_j1 = 0;
  for (const int J : {1, 2, 4}) {
    shard::ShardedAlignSession session(sharded_ref,
                                       shard::ShardedSessionConfig{scfg, J});
    core::CountingSink sink;
    const auto res = session.align_batch(rt, w.reads, sink);
    if (J == 1) {
      wall_j1 = res.wall_s;
      alignments_j1 = res.stats.alignments_reported;
      sw_calls_j1 = res.stats.sw_calls;
    } else if (res.stats.alignments_reported != alignments_j1 ||
               res.stats.sw_calls != sw_calls_j1) {
      std::fprintf(stderr,
                   "FATAL: J=%d changed the result counts — the executor "
                   "must never change output\n",
                   J);
      return 1;
    }
    const double speedup = res.wall_s > 0.0 ? wall_j1 / res.wall_s : 0.0;
    std::printf("%4d %12.3f %14.3f %14.3f %11.2fx %10llu\n", J, res.wall_s,
                cpu_sum_s(res.report), res.total_time_s(), speedup,
                static_cast<unsigned long long>(res.stats.alignments_reported));
    json.config("shards_K" + std::to_string(kShards) + "_J" +
                std::to_string(J));
    json.metric("wall_s", res.wall_s);
    json.metric("cpu_sum_s", cpu_sum_s(res.report));
    json.metric("model_serial_s", res.total_time_s());
    json.metric("model_parallel_s", res.time_parallel_s());
    json.metric("speedup_vs_serial", speedup);
    json.metric("alignments", static_cast<double>(res.stats.alignments_reported));
  }
  std::printf(
      "(shard dispatch is bit-identical at every J; wall-clock is the only "
      "column J may change)\n\n");

  // ---- B: double-buffered batch streaming ---------------------------------
  const std::size_t nbatches = smoke ? 4 : 6;
  std::printf("B. %zu-file batch stream, load(N+1) overlapped with align(N)\n",
              nbatches);
  std::vector<std::string> paths;
  const std::size_t per_batch = w.reads.size() / nbatches;
  for (std::size_t b = 0; b < nbatches; ++b) {
    const std::size_t lo = b * per_batch;
    const std::size_t hi = b + 1 == nbatches ? w.reads.size() : lo + per_batch;
    const std::vector<seq::SeqRecord> chunk(w.reads.begin() + lo,
                                            w.reads.begin() + hi);
    paths.push_back("fig13_batch_" + std::to_string(b) + ".fastq");
    seq::write_fastq(paths.back(), chunk);
  }

  pgas::Runtime stream_rt(pgas::Topology(2, 2));
  const auto mono_ref =
      core::IndexedReference::build(stream_rt, w.contigs, icfg);
  std::printf("%10s %12s %12s %12s %10s\n", "mode", "wall(s)", "load(s)",
              "stall(s)", "alignments");
  const auto stream_row = [&](const char* mode,
                              const core::FileStreamResult& res) {
    std::printf("%10s %12.3f %12.3f %12.3f %10llu\n", mode, res.wall_s,
                res.load_wall_s, res.stall_s,
                static_cast<unsigned long long>(res.stats.alignments_reported));
    json.config(std::string("stream_") + mode);
    json.metric("wall_s", res.wall_s);
    json.metric("load_wall_s", res.load_wall_s);
    json.metric("stall_s", res.stall_s);
    json.metric("model_serial_s", res.total_time_s());
    json.metric("batches", static_cast<double>(res.batches.size()));
    json.metric("alignments", static_cast<double>(res.stats.alignments_reported));
  };

  // sync: load a file, then align it — every load sits on the critical path.
  core::FileStreamResult sync;
  {
    core::AlignSession session(mono_ref, scfg);
    core::CountingSink sink;
    const bench::StopWatch wall;
    for (const std::string& p : paths) {
      const bench::StopWatch load;
      auto records = core::load_read_batch(p);
      sync.load_wall_s += load.elapsed_s();
      const auto& res = sync.batches.emplace_back(
          session.align_batch(stream_rt, std::move(records), sink));
      sync.report.append(res.report);
      sync.stats += res.stats;
    }
    sync.wall_s = wall.elapsed_s();
    sync.stall_s = sync.load_wall_s;  // nothing overlaps: every load stalls
  }
  stream_row("sync", sync);

  {
    core::AlignSession session(mono_ref, scfg);
    core::CountingSink sink;
    const auto res = session.align_batch_files(stream_rt, paths, sink);
    if (res.stats.alignments_reported != sync.stats.alignments_reported) {
      std::fprintf(stderr,
                   "FATAL: prefetching changed the result counts — overlap "
                   "must never change output\n");
      return 1;
    }
    stream_row("prefetch", res);
    if (res.wall_s > 0.0)
      std::printf(
          "(I/O hiding: %.3f s of loading left the critical path; stream "
          "speedup %.2fx)\n",
          res.load_wall_s - res.stall_s, sync.wall_s / res.wall_s);
  }
  for (const std::string& p : paths) std::remove(p.c_str());

  json.config("bench_total");
  json.metric("bench_wall_s", bench_watch.elapsed_s());
  return json.write() ? 0 : 1;
}
