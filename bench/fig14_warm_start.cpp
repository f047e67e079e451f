// Cache persistence & warm start: a restarted screening service skips the
// cold process's remote-lookup work.
//
// The paper's software caches (Section IV, Figure 9) make repeated screening
// cheap *within* a process; this bench measures what snapshotting them buys
// *across* processes. Two "processes" run the same batch stream over the
// same reference:
//
//   cold — fresh index, empty caches; every off-node seed lookup and target
//          fetch pays the modeled remote transfer at least once;
//   warm — a simulated restart: the index is rebuilt from scratch and a new
//          session starts, but its caches are restored from the cold
//          process's snapshot (--save-cache / --load-cache in the CLI), so
//          the remote work the cold process already paid for is skipped.
//
// The contract this bench enforces (and the numbers it reports):
//   * the warm process's cache hit rate is STRICTLY above the cold one's on
//     the same stream, from the very first batch;
//   * warm output is identical to cold output, record for record and in
//     order — persistence changes the modeled communication seconds, never
//     the records. The bench aborts
//     (exit 1) if either fails.
//
// Output: per-batch hit-rate rows for both processes, single-reference and
// K=4 sharded, plus a machine-readable BENCH_fig14.json (bench::JsonSummary)
// for CI perf-trajectory archiving. Pass --smoke for the CI-sized workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using mera::core::AlignmentRecord;
using mera::core::PipelineStats;
using mera::seq::SeqRecord;

struct ProcessResult {
  PipelineStats stats;                    ///< summed over batches
  std::vector<double> batch_hit_rates;    ///< seed-cache, per batch
  std::vector<AlignmentRecord> records;   ///< emission order, for the identity check
  double align_model_s = 0.0;
};

double hit_rate(const PipelineStats& s) {
  // Off-node lookups served by the seed cache, over all lookups that could
  // have used it (hits + the misses that went to the index).
  return s.seed_lookups == 0 ? 0.0
                             : static_cast<double>(s.seed_cache_hits) /
                                   static_cast<double>(s.seed_lookups);
}

/// Stream `batches` through one session; works for both session types.
template <typename SessionT, typename RunBatchFn>
ProcessResult run_stream(const std::vector<std::vector<SeqRecord>>& batches,
                         SessionT& session, RunBatchFn&& run_batch,
                         int nranks) {
  ProcessResult out;
  mera::core::VectorSink vec(nranks);
  for (const auto& batch : batches) {
    const auto res = run_batch(session, batch, vec);
    out.stats += res.stats;
    out.batch_hit_rates.push_back(hit_rate(res.stats));
    out.align_model_s += res.report.total_time_s();
  }
  out.records = vec.take();
  return out;
}

void print_process(const char* name, const ProcessResult& r) {
  std::printf("  %-6s", name);
  for (const double hr : r.batch_hit_rates) std::printf(" %8.1f%%", 100 * hr);
  std::printf("  | %9.4f s lookup comm, %9.4f s fetch comm, %llu alignments\n",
              r.stats.comm_lookup_s, r.stats.comm_fetch_s,
              static_cast<unsigned long long>(r.stats.alignments_reported));
}

void emit_json(bench::JsonSummary& json, const std::string& config,
               const ProcessResult& r) {
  json.config(config);
  json.metric("seed_hit_rate", hit_rate(r.stats));
  json.metric("seed_cache_hits", static_cast<double>(r.stats.seed_cache_hits));
  json.metric("seed_lookups", static_cast<double>(r.stats.seed_lookups));
  json.metric("target_cache_hits",
              static_cast<double>(r.stats.target_cache_hits));
  json.metric("comm_lookup_s", r.stats.comm_lookup_s);
  json.metric("comm_fetch_s", r.stats.comm_fetch_s);
  json.metric("align_model_s", r.align_model_s);
  json.metric("first_batch_hit_rate",
              r.batch_hit_rates.empty() ? 0.0 : r.batch_hit_rates.front());
  json.metric("alignments", static_cast<double>(r.stats.alignments_reported));
}

/// The bit-identity and strictly-warmer gates; exit 1 on violation.
void enforce(const char* what, const ProcessResult& cold,
             const ProcessResult& warm) {
  if (cold.records != warm.records) {
    std::fprintf(stderr,
                 "FATAL: %s: warm records differ from cold (%zu vs %zu "
                 "records) — persistence changed bytes!\n",
                 what, warm.records.size(), cold.records.size());
    std::exit(1);
  }
  if (hit_rate(warm.stats) <= hit_rate(cold.stats)) {
    std::fprintf(stderr,
                 "FATAL: %s: warm hit rate %.4f is not above cold %.4f — "
                 "the snapshot did not warm-start the caches!\n",
                 what, hit_rate(warm.stats), hit_rate(cold.stats));
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mera;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

  bench::print_header(
      "Warm start — session caches snapshotted across process restarts",
      "Section IV software caches, persisted (ROADMAP cache persistence)");
  bench::JsonSummary json(
      "fig14", "cold vs warm-started process on the same batch stream");
  const bench::StopWatch bench_watch;  // measured via the shared obs clock

  const auto w = bench::make_workload(
      bench::human_like(smoke ? 300'000 : 1'000'000, smoke ? 2.0 : 3.0));
  constexpr std::size_t kBatches = 3;
  std::vector<std::vector<SeqRecord>> batches(kBatches);
  for (std::size_t i = 0; i < w.reads.size(); ++i)
    batches[i * kBatches / w.reads.size()].push_back(w.reads[i]);
  std::printf("workload: %zu contigs, %zu reads in %zu batches%s\n\n",
              w.contigs.size(), w.reads.size(), kBatches,
              smoke ? " (smoke)" : "");

  const std::string snapdir = "fig14_cache_snapshots";
  std::filesystem::remove_all(snapdir);
  std::filesystem::create_directories(snapdir);
  const pgas::Topology topo(8, 4);  // 2 nodes: off-node traffic to cache
  core::IndexConfig icfg;
  icfg.k = 31;
  core::SessionConfig scfg;  // both caches on
  // Size the seed cache to the workload's distinct-seed count (the paper
  // dedicates 16 GB/node). With a churning cache a snapshot only carries the
  // tail of the stream and warm ~= cold — true, but it measures eviction,
  // not persistence; this bench isolates the warm-start effect.
  scfg.seed_cache_capacity = smoke ? (1u << 18) : (1u << 21);

  // ---- A: single reference -------------------------------------------------
  std::printf("A. single reference, %zu-batch stream (seed-cache hit rate "
              "per batch)\n", kBatches);
  {
    const std::string snap = snapdir + "/session.mcache";
    ProcessResult cold, warm;
    {
      // "Process 1": cold start, then snapshot.
      pgas::Runtime rt(topo);
      const auto ref = core::IndexedReference::build(rt, w.contigs, icfg);
      core::AlignSession session(ref, scfg);
      cold = run_stream(batches, session,
                        [&rt](core::AlignSession& s,
                              const std::vector<SeqRecord>& batch,
                              core::AlignmentSink& sink) {
                          return s.align_batch(rt, batch, sink);
                        },
                        rt.nranks());
      session.save_caches(rt, snap);
    }
    {
      // "Process 2": everything rebuilt from scratch — except the caches,
      // which warm-load from the snapshot before the first batch.
      pgas::Runtime rt(topo);
      const auto ref = core::IndexedReference::build(rt, w.contigs, icfg);
      core::AlignSession session(ref, scfg);
      session.load_caches(rt, snap);
      warm = run_stream(batches, session,
                        [&rt](core::AlignSession& s,
                              const std::vector<SeqRecord>& batch,
                              core::AlignmentSink& sink) {
                          return s.align_batch(rt, batch, sink);
                        },
                        rt.nranks());
    }
    print_process("cold", cold);
    print_process("warm", warm);
    enforce("single reference", cold, warm);
    std::printf("  -> warm skipped %.1f%% of the cold lookup communication\n\n",
                100.0 * (1.0 - warm.stats.comm_lookup_s /
                                   std::max(cold.stats.comm_lookup_s, 1e-12)));
    emit_json(json, "single_cold", cold);
    emit_json(json, "single_warm", warm);
  }

  // ---- B: K=4 sharded reference (one snapshot per shard) -------------------
  constexpr int kShards = 4;
  std::printf("B. K=%d sharded reference, one snapshot per shard\n", kShards);
  {
    const std::string snap = snapdir + "/sharded";
    core::SessionConfig sscfg = scfg;
    sscfg.exact_match = false;       // mirrors the sharded screening setup
    sscfg.max_hits_per_seed = 4096;  // no per-shard truncation
    ProcessResult cold, warm;
    {
      pgas::Runtime rt(topo);
      const auto ref =
          shard::ShardedReference::build(rt, w.contigs, kShards, icfg);
      shard::ShardedAlignSession session(ref, sscfg);
      cold = run_stream(batches, session,
                        [&rt](shard::ShardedAlignSession& s,
                              const std::vector<SeqRecord>& batch,
                              core::AlignmentSink& sink) {
                          return s.align_batch(rt, batch, sink);
                        },
                        rt.nranks());
      session.save_caches(rt, snap);
    }
    {
      pgas::Runtime rt(topo);
      const auto ref =
          shard::ShardedReference::build(rt, w.contigs, kShards, icfg);
      shard::ShardedAlignSession session(ref, sscfg);
      session.load_caches(rt, snap);
      warm = run_stream(batches, session,
                        [&rt](shard::ShardedAlignSession& s,
                              const std::vector<SeqRecord>& batch,
                              core::AlignmentSink& sink) {
                          return s.align_batch(rt, batch, sink);
                        },
                        rt.nranks());
    }
    print_process("cold", cold);
    print_process("warm", warm);
    enforce("sharded K=4", cold, warm);
    std::printf("  -> warm skipped %.1f%% of the cold lookup communication\n\n",
                100.0 * (1.0 - warm.stats.comm_lookup_s /
                                   std::max(cold.stats.comm_lookup_s, 1e-12)));
    emit_json(json, "shardedK4_cold", cold);
    emit_json(json, "shardedK4_warm", warm);
  }

  std::filesystem::remove_all(snapdir);
  std::printf("bit-identity: warm records identical to cold, in order (both parts)\n");
  json.config("bench_total");
  json.metric("bench_wall_s", bench_watch.elapsed_s());
  if (!json.write()) return 1;
  return 0;
}
