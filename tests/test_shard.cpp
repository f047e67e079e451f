// The sharded-reference subsystem: ShardPlanner (partition targets into
// balanced shards), ShardedReference (K IndexedReference shards + global
// target-id mapping + merged SAM header), ShardedAlignSession (stream each
// batch through every shard, reconcile deterministically, emit through the
// ordinary AlignmentSink interface).
//
// The contract that matters: with an exhaustive per-shard search (exact-match
// short-circuit off, no seed-hit truncation), a K-shard session must be
// bit-identical — records, SAM content, and work totals — to the equivalent
// single-IndexedReference session, for every sink, on the scalar reference
// tier and the auto-dispatched one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/indexed_reference.hpp"
#include "core/sam_writer.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "seq/seqdb.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using namespace mera;
using namespace mera::shard;
using mera::align::SwIsa;
using mera::core::AlignmentRecord;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth,
                       double error_rate = 0.005, std::uint64_t seed = 7) {
  Workload w;
  seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = 0.02;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = depth;
  rp.error_rate = error_rate;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(genome, rp);
  return w;
}

core::IndexConfig small_index(int k = 21) {
  core::IndexConfig ic;
  ic.k = k;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

/// Exhaustive-search session config: the regime in which shard composition
/// is provably lossless (see sharded_session.hpp).
core::SessionConfig exhaustive_session() {
  core::SessionConfig sc;
  sc.seed_cache_capacity = 1u << 14;
  sc.target_cache_bytes = 8u << 20;
  sc.permute_queries = false;  // keep rank partitions comparable
  sc.exact_match = false;      // the Lemma-1 short-circuit is per shard
  sc.max_hits_per_seed = 4096; // no per-shard truncation
  return sc;
}

void sort_records(std::vector<AlignmentRecord>& recs) {
  auto key = [](const AlignmentRecord& r) {
    return std::tie(r.query_name, r.target_id, r.t_begin, r.t_end, r.reverse,
                    r.score, r.q_begin, r.q_end, r.cigar, r.mismatches,
                    r.exact);
  };
  std::sort(recs.begin(), recs.end(),
            [&](const AlignmentRecord& a, const AlignmentRecord& b) {
              return key(a) < key(b);
            });
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ---------------------------------------------------------------------------
// ShardPlanner
// ---------------------------------------------------------------------------

std::vector<SeqRecord> synthetic_targets(const std::vector<std::size_t>& lens) {
  std::vector<SeqRecord> out;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    SeqRecord r;
    r.name = "t" + std::to_string(i);
    r.seq = std::string(lens[i], 'A');
    out.push_back(std::move(r));
  }
  return out;
}

TEST(ShardPlanner, PartitionsEveryTargetExactlyOnce) {
  const auto targets =
      synthetic_targets({900, 120, 4000, 2500, 64, 1800, 700, 3100, 50, 2000});
  ShardPlanOptions opt;
  opt.shards = 4;
  opt.k = 21;
  const ShardPlan plan = plan_shards(targets, opt);
  ASSERT_EQ(plan.num_shards(), 4);
  std::vector<int> seen(targets.size(), 0);
  for (const auto& s : plan.shards) {
    EXPECT_TRUE(std::is_sorted(s.targets.begin(), s.targets.end()));
    for (const auto gid : s.targets) {
      ASSERT_LT(gid, targets.size());
      ++seen[gid];
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "target " << i;
  EXPECT_EQ(plan.num_targets(), targets.size());
}

TEST(ShardPlanner, BalancesWeightWithinTheLptBound) {
  // 40 targets with skewed lengths; LPT guarantees max <= mean + heaviest.
  std::vector<std::size_t> lens;
  for (std::size_t i = 0; i < 40; ++i) lens.push_back(100 + 137 * i % 5000);
  const auto targets = synthetic_targets(lens);
  ShardPlanOptions opt;
  opt.shards = 4;
  opt.k = 21;
  const ShardPlan plan = plan_shards(targets, opt);
  std::uint64_t heaviest = 0;
  for (const auto& t : targets)
    heaviest = std::max(heaviest, target_weight(t, opt.k));
  const double mean =
      static_cast<double>(plan.total_weight()) / plan.num_shards();
  EXPECT_LE(static_cast<double>(plan.max_weight()),
            mean + static_cast<double>(heaviest));
  EXPECT_GE(plan.imbalance(), 1.0);
  EXPECT_LT(plan.imbalance(), 1.5);  // near-even for this mix
}

TEST(ShardPlanner, IsDeterministicAndClampsShardCount) {
  const auto targets = synthetic_targets({500, 300, 900});
  ShardPlanOptions opt;
  opt.shards = 8;  // more shards than targets
  const ShardPlan a = plan_shards(targets, opt);
  const ShardPlan b = plan_shards(targets, opt);
  ASSERT_EQ(a.num_shards(), 3);  // clamped to num_targets
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.shards[static_cast<std::size_t>(s)].targets,
              b.shards[static_cast<std::size_t>(s)].targets);
  }
  opt.shards = 0;  // clamped up to 1
  EXPECT_EQ(plan_shards(targets, opt).num_shards(), 1);
}

TEST(ShardPlanner, TargetWeightCountsSeeds) {
  SeqRecord t;
  t.seq = std::string(100, 'A');
  EXPECT_EQ(target_weight(t, 21), 80u);  // L - k + 1
  t.seq = std::string(21, 'A');
  EXPECT_EQ(target_weight(t, 21), 1u);
  t.seq = std::string(10, 'A');  // shorter than k: no seeds, but weight >= 1
  EXPECT_EQ(target_weight(t, 21), 1u);
}

// ---------------------------------------------------------------------------
// ShardedReference
// ---------------------------------------------------------------------------

TEST(ShardedReference, GlobalIdMappingRoundTripsAndHeaderMatchesMonolithic) {
  const auto w = make_workload(20'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto mono = core::IndexedReference::build(rt, w.contigs, small_index());
  const auto sharded = ShardedReference::build(rt, w.contigs, 3, small_index());

  ASSERT_EQ(sharded.num_shards(), 3);
  ASSERT_EQ(sharded.num_targets(), w.contigs.size());
  for (std::uint32_t gid = 0; gid < sharded.num_targets(); ++gid) {
    const auto [s, local] = sharded.to_shard(gid);
    EXPECT_EQ(sharded.to_global(s, local), gid);
    // Global ids are input positions — the same ids the monolithic build
    // assigns — so names must agree id for id.
    EXPECT_EQ(sharded.target_name(gid), w.contigs[gid].name);
    EXPECT_EQ(sharded.target_name(gid),
              mono.targets().target_unsync(gid).name);
    EXPECT_EQ(sharded.target_length(gid), w.contigs[gid].seq.size());
  }

  std::ostringstream mono_hdr, shard_hdr;
  core::write_sam_header(mono_hdr, mono.targets());
  core::write_sam_header(shard_hdr, sharded.sam_targets());
  EXPECT_EQ(mono_hdr.str(), shard_hdr.str());
}

TEST(ShardedReference, BuildDiagnosticsCoverEveryShard) {
  const auto w = make_workload(20'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto mono = core::IndexedReference::build(rt, w.contigs, small_index());
  const auto sharded = ShardedReference::build(rt, w.contigs, 4, small_index());

  // Index entries are per-target quantities, so the shard sum equals the
  // monolithic count exactly.
  EXPECT_EQ(sharded.index_entries(), mono.index_entries());
  EXPECT_TRUE(sharded.exact_match_marked());

  // The appended build report holds one index.build per shard, and the
  // parallel (per-runtime) build time can only be <= the serial sum.
  std::size_t builds = 0;
  for (const auto& ph : sharded.build_report().phases)
    builds += ph.name == "index.build" ? 1 : 0;
  EXPECT_EQ(builds, 4u);
  EXPECT_LE(sharded.build_time_parallel_s(), sharded.build_time_serial_s());
  EXPECT_GT(sharded.build_time_parallel_s(), 0.0);
}

TEST(ShardedReference, RejectsPlansThatAreNotAPartition) {
  const auto targets = synthetic_targets({500, 300, 900});
  Runtime rt(Topology(2, 2));
  ShardPlan missing;  // covers only target 0
  missing.shards.push_back({{0}, 500});
  EXPECT_THROW(
      (void)ShardedReference::build(rt, targets, missing, small_index()),
      std::invalid_argument);
  ShardPlan dup;  // target 1 twice
  dup.shards.push_back({{0, 1}, 800});
  dup.shards.push_back({{1, 2}, 1200});
  EXPECT_THROW((void)ShardedReference::build(rt, targets, dup, small_index()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ShardedAlignSession — the equivalence contract
// ---------------------------------------------------------------------------

std::vector<AlignmentRecord> run_monolithic(const Workload& w,
                                            const core::SessionConfig& sc,
                                            core::PipelineStats* stats = nullptr,
                                            std::string* sam = nullptr) {
  Runtime rt(Topology(4, 2));
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());
  core::AlignSession session(ref, sc);
  core::VectorSink vec(rt.nranks());
  std::ostringstream sam_text;
  core::SamStreamSink sam_sink(sam_text, ref);
  core::TeeSink tee({&vec, &sam_sink});
  const auto res = session.align_batch(rt, w.reads, tee);
  EXPECT_EQ(res.stats.hits_truncated, 0u);
  if (stats) *stats = res.stats;
  if (sam) *sam = sam_text.str();
  return vec.take();
}

TEST(ShardedSession, OutputBitIdenticalToMonolithicSessionAllKernelsAllK) {
  const auto w = make_workload(30'000, 1.5, /*error=*/0.005);

  for (const SwIsa isa : {SwIsa::kScalar, SwIsa::kAuto}) {
    core::SessionConfig sc = exhaustive_session();
    sc.extension.isa = isa;

    core::PipelineStats mono_stats;
    auto mono = run_monolithic(w, sc, &mono_stats);
    sort_records(mono);
    ASSERT_GT(mono.size(), 0u);

    for (const int K : {1, 2, 4}) {
      Runtime rt(Topology(4, 2));
      const auto ref = ShardedReference::build(rt, w.contigs, K, small_index());
      ASSERT_EQ(ref.num_shards(), K);
      ShardedAlignSession session(ref, sc);
      core::VectorSink vec(rt.nranks());
      const auto res = session.align_batch(rt, w.reads, vec);
      auto got = vec.take();
      sort_records(got);

      ASSERT_EQ(got.size(), mono.size())
          << "K=" << K << " isa=" << isa_name(isa);
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], mono[i])
            << "record " << i << " K=" << K
            << " isa=" << isa_name(isa);

      // Work totals: reads counted once, per-target work summed over shards.
      EXPECT_EQ(res.stats.hits_truncated, 0u);
      EXPECT_EQ(res.stats.reads_processed, mono_stats.reads_processed);
      EXPECT_EQ(res.stats.reads_aligned, mono_stats.reads_aligned);
      EXPECT_EQ(res.stats.alignments_reported, mono_stats.alignments_reported);
      EXPECT_EQ(res.stats.sw_calls, mono_stats.sw_calls);
      EXPECT_EQ(res.stats.target_fetches, mono_stats.target_fetches);
      EXPECT_EQ(res.per_shard.size(), static_cast<std::size_t>(K));
    }
  }
}

TEST(ShardedSession, SamBytesMatchMonolithicForEverySinkAndAreDeterministic) {
  const auto w = make_workload(30'000, 1.2);
  const core::SessionConfig sc = exhaustive_session();

  std::string mono_sam;
  auto mono = run_monolithic(w, sc, nullptr, &mono_sam);

  auto run_sharded = [&](std::string* sam_out) {
    Runtime rt(Topology(4, 2));
    const auto ref = ShardedReference::build(rt, w.contigs, 3, small_index());
    ShardedAlignSession session(ref, sc);
    core::VectorSink vec(rt.nranks());
    core::CountingSink count;
    std::ostringstream sam_text;
    core::SamStreamSink sam(sam_text, ref.sam_targets(), rt.nranks());
    core::TeeSink tee({&vec, &count, &sam});
    const auto res = session.align_batch(rt, w.reads, tee);
    // Every sink saw the same reconciled stream.
    EXPECT_EQ(count.records(), res.stats.alignments_reported);
    EXPECT_EQ(sam.records_written(), count.records());
    EXPECT_EQ(vec.size(), count.records());
    *sam_out = sam_text.str();
    return vec.take();
  };

  std::string sam1, sam2;
  auto got1 = run_sharded(&sam1);
  auto got2 = run_sharded(&sam2);

  // Sharded emission is deterministic: two identical runs, identical bytes.
  EXPECT_EQ(sam1, sam2);
  ASSERT_EQ(got1.size(), got2.size());
  for (std::size_t i = 0; i < got1.size(); ++i) EXPECT_EQ(got1[i], got2[i]);

  // And identical SAM content to the monolithic session. Record order within
  // a read differs by design (the sharded session emits the reconciled
  // best-first order, the monolithic one discovery order), so compare the
  // line sets — the same normalization the repo's golden CLI test uses.
  EXPECT_EQ(sorted_lines(sam1), sorted_lines(mono_sam));

  sort_records(mono);
  sort_records(got1);
  ASSERT_EQ(got1.size(), mono.size());
  for (std::size_t i = 0; i < got1.size(); ++i) EXPECT_EQ(got1[i], mono[i]);
}

TEST(ShardedSession, ReconciledOrderIsBestScoreFirstWithinARead) {
  const auto w = make_workload(25'000, 1.0);
  Runtime rt(Topology(4, 2));
  const auto ref = ShardedReference::build(rt, w.contigs, 2, small_index());
  ShardedAlignSession session(ref, exhaustive_session());

  // Collect (read pointer, record) pairs in emission order, per rank: ranks
  // may emit concurrently (the sink contract), and each rank's reads are
  // its own.
  class OrderSink final : public core::AlignmentSink {
   public:
    explicit OrderSink(int nranks) : per_rank(static_cast<std::size_t>(nranks)) {}
    void emit(int rank, const seq::SeqRecord& read,
              AlignmentRecord&& rec) override {
      per_rank[static_cast<std::size_t>(rank)].emplace_back(&read,
                                                            std::move(rec));
    }
    std::vector<std::vector<std::pair<const SeqRecord*, AlignmentRecord>>>
        per_rank;
  };
  OrderSink sink(rt.nranks());
  (void)session.align_batch(rt, w.reads, sink);
  std::vector<std::pair<const SeqRecord*, AlignmentRecord>> entries;
  for (auto& rank_entries : sink.per_rank)
    for (auto& e : rank_entries) entries.push_back(std::move(e));
  ASSERT_GT(entries.size(), 0u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const auto& [pread, prev] = entries[i - 1];
    const auto& [cread, cur] = entries[i];
    if (pread != cread) continue;  // new read: ordering restarts
    EXPECT_TRUE(std::tie(prev.score) >= std::tie(cur.score) &&
                (prev.score != cur.score ||
                 std::tie(prev.target_id, prev.t_begin) <=
                     std::tie(cur.target_id, cur.t_begin)))
        << "entry " << i << " violates (score desc, target, pos) order";
  }
}

TEST(ShardedSession, FastaPerShardBuildMatchesMonolithic) {
  const auto w = make_workload(25'000, 1.0);
  // Split the contig set into two FASTA files (contiguous halves, so file
  // order equals concatenation order equals monolithic input order).
  const std::size_t half = w.contigs.size() / 2;
  const std::vector<SeqRecord> a(w.contigs.begin(),
                                 w.contigs.begin() +
                                     static_cast<std::ptrdiff_t>(half));
  const std::vector<SeqRecord> b(w.contigs.begin() +
                                     static_cast<std::ptrdiff_t>(half),
                                 w.contigs.end());
  const std::string fa = "test_shard_targets_a.fa";
  const std::string fb = "test_shard_targets_b.fa";
  seq::write_fasta(fa, a);
  seq::write_fasta(fb, b);

  const core::SessionConfig sc = exhaustive_session();
  auto mono = run_monolithic(w, sc);
  sort_records(mono);

  Runtime rt(Topology(4, 2));
  const auto ref = ShardedReference::build_from_fastas(rt, {fa, fb},
                                                       small_index());
  EXPECT_EQ(ref.num_shards(), 2);
  EXPECT_EQ(ref.num_targets(), w.contigs.size());
  ShardedAlignSession session(ref, sc);
  core::VectorSink vec(rt.nranks());
  (void)session.align_batch(rt, w.reads, vec);
  auto got = vec.take();
  sort_records(got);

  ASSERT_EQ(got.size(), mono.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], mono[i]);

  std::remove(fa.c_str());
  std::remove(fb.c_str());
}

TEST(ShardedSession, FileBatchMatchesInMemoryBatch) {
  const auto w = make_workload(20'000, 1.0);
  const std::string db_path = "test_shard_reads.sdb";
  {
    seq::SeqDBWriter db(db_path);
    for (const auto& r : w.reads) db.add(r);
  }

  Runtime rt(Topology(4, 2));
  const auto ref = ShardedReference::build(rt, w.contigs, 2, small_index());
  core::SessionConfig sc = exhaustive_session();
  sc.permute_queries = true;  // exercise the shared one-shot permutation
  ShardedAlignSession session(ref, sc);

  core::VectorSink v_mem(rt.nranks()), v_file(rt.nranks());
  const auto r_mem = session.align_batch(rt, w.reads, v_mem);
  const auto r_file =
      session.align_batch(rt, core::load_read_batch(db_path), v_file);
  auto mem = v_mem.take();
  auto file = v_file.take();
  EXPECT_EQ(r_mem.stats.alignments_reported, r_file.stats.alignments_reported);
  ASSERT_EQ(mem.size(), file.size());
  // Identical permutation, identical partition: even the emission order
  // matches, not just the record set.
  for (std::size_t i = 0; i < mem.size(); ++i) EXPECT_EQ(mem[i], file[i]);

  EXPECT_EQ(session.batches_aligned(), 2u);
  std::remove(db_path.c_str());
}

TEST(ShardedSession, AggregatesPhaseReportsAcrossShards) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(4, 2));
  const auto ref = ShardedReference::build(rt, w.contigs, 3, small_index());
  ShardedAlignSession session(ref, exhaustive_session());
  core::CountingSink sink;
  const auto res = session.align_batch(rt, w.reads, sink);

  std::size_t aligns = 0, io_reads = 0;
  for (const auto& ph : res.report.phases) {
    aligns += ph.name == "align" ? 1 : 0;
    io_reads += ph.name == "io.reads" ? 1 : 0;
    EXPECT_NE(ph.name, "index.build");  // reuse: no index phases in batches
    EXPECT_NE(ph.name, "index.mark");
    EXPECT_NE(ph.name, "io.targets");
  }
  EXPECT_EQ(aligns, 3u);
  EXPECT_EQ(io_reads, 3u);
  EXPECT_LE(res.time_parallel_s(), res.total_time_s());
  EXPECT_GT(res.time_parallel_s(), 0.0);
}

TEST(ShardedSession, TopologyMismatchIsRejected) {
  const auto w = make_workload(10'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto ref = ShardedReference::build(rt, w.contigs, 2, small_index());
  ShardedAlignSession session(ref, exhaustive_session());
  core::CountingSink sink;
  Runtime other(Topology(2, 2));
  EXPECT_THROW((void)session.align_batch(other, w.reads, sink),
               std::invalid_argument);
}

}  // namespace
