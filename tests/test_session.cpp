// The session-based aligner API: IndexedReference (build once) +
// AlignSession (stream query batches) + AlignmentSink outputs.
//
// The two contracts that matter:
//   1. equivalence — a session reports exactly the same records whether the
//      queries arrive in one batch or in several;
//   2. reuse — a batch's PhaseReport never contains the index phases, so a
//      second batch demonstrably pays no index reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace {

using namespace mera::core;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth,
                       double error_rate = 0.0, std::uint64_t seed = 7,
                       double repeat_fraction = 0.02,
                       std::size_t read_len = 80) {
  Workload w;
  mera::seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = repeat_fraction;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = read_len;
  rp.depth = depth;
  rp.error_rate = error_rate;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(genome, rp);
  return w;
}

IndexConfig small_index(int k = 21) {
  IndexConfig ic;
  ic.k = k;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

SessionConfig small_session() {
  SessionConfig sc;
  sc.seed_cache_capacity = 1u << 14;
  sc.target_cache_bytes = 8u << 20;
  sc.permute_queries = false;  // keep batch splits comparable
  return sc;
}

void sort_records(std::vector<AlignmentRecord>& recs) {
  std::sort(recs.begin(), recs.end(),
            [](const AlignmentRecord& a, const AlignmentRecord& b) {
              return std::tie(a.query_name, a.target_id, a.t_begin, a.reverse,
                              a.score) < std::tie(b.query_name, b.target_id,
                                                  b.t_begin, b.reverse,
                                                  b.score);
            });
}

TEST(Session, ThreeBatchesMatchOneBatchBitIdentically) {
  const auto w = make_workload(30'000, 1.5, /*error=*/0.005);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  VectorSink sink(rt.nranks());

  // All reads in one batch.
  (void)session.align_batch(rt, w.reads, sink);
  auto one_batch = sink.take();

  // The same reads in three batches on the same session (warm caches).
  std::vector<AlignmentRecord> batched;
  const std::size_t third = w.reads.size() / 3;
  const std::vector<std::vector<SeqRecord>> batches = {
      {w.reads.begin(), w.reads.begin() + third},
      {w.reads.begin() + third, w.reads.begin() + 2 * third},
      {w.reads.begin() + 2 * third, w.reads.end()},
  };
  for (const auto& b : batches) {
    (void)session.align_batch(rt, b, sink);
    for (auto& rec : sink.take()) batched.push_back(std::move(rec));
  }

  sort_records(one_batch);
  sort_records(batched);
  ASSERT_EQ(one_batch.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    EXPECT_EQ(one_batch[i], batched[i]) << "record " << i;
}

TEST(Session, IndependentlyBuiltReferencesGiveByteEqualSam) {
  // Seed-hit order, and which hits survive the max-hits cut, is fixed by
  // the index's canonical run order, not by build-thread arrival order: two
  // separate builds of one repeat-rich reference give the same SAM bytes.
  const auto w = make_workload(60'000, 1.0, /*error=*/0.005, /*seed=*/13,
                               /*repeat_fraction=*/0.25, /*read_len=*/150);
  std::string sam[2];
  for (std::string& text : sam) {
    Runtime rt(Topology(4, 2));
    const auto ref = IndexedReference::build(rt, w.contigs, small_index());
    SessionConfig sc = small_session();
    sc.max_hits_per_seed = 8;
    AlignSession session(ref, sc);
    std::ostringstream os;
    SamStreamSink sink(os, ref);
    const auto res = session.align_batch(rt, w.reads, sink);
    EXPECT_GT(res.stats.hits_truncated, 0u);
    text = os.str();
  }
  EXPECT_GT(std::count(sam[0].begin(), sam[0].end(), '\n'), 100);
  EXPECT_EQ(sam[0], sam[1]);
}

TEST(Session, SecondBatchSkipsIndexConstructionPhases) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());

  // Index phases happened exactly once, at build time.
  EXPECT_NE(ref.build_report().find("index.build"), nullptr);
  EXPECT_NE(ref.build_report().find("index.mark"), nullptr);
  EXPECT_NE(ref.build_report().find("io.targets"), nullptr);

  AlignSession session(ref, small_session());
  VectorSink sink(rt.nranks());
  const auto b1 = session.align_batch(rt, w.reads, sink);
  const std::size_t n1 = sink.take().size();
  const auto b2 = session.align_batch(rt, w.reads, sink);
  const std::size_t n2 = sink.take().size();

  for (const auto* batch : {&b1, &b2}) {
    EXPECT_EQ(batch->report.find("index.build"), nullptr);
    EXPECT_EQ(batch->report.find("index.mark"), nullptr);
    EXPECT_EQ(batch->report.find("io.targets"), nullptr);
    EXPECT_NE(batch->report.find("io.reads"), nullptr);
    EXPECT_NE(batch->report.find("align"), nullptr);
  }
  EXPECT_EQ(session.batches_aligned(), 2u);
  EXPECT_GT(n1, 0u);
  EXPECT_EQ(n1, n2);  // same reads, same index -> same records
  EXPECT_EQ(b1.stats.reads_processed, b2.stats.reads_processed);
}

TEST(Session, CachesPersistAcrossBatchesAndCountersArePerBatch) {
  const auto w = make_workload(30'000, 1.5);
  Runtime rt(Topology(8, 2));  // 4 nodes -> off-node traffic to cache
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  SessionConfig sc = small_session();
  sc.exact_match = false;          // keep lookup volume high
  sc.seed_cache_capacity = 1u << 18;   // no evictions: warm-cache claim is
  sc.target_cache_bytes = 64u << 20;   // about persistence, not replacement
  AlignSession session(ref, sc);
  CountingSink sink;
  const auto b1 = session.align_batch(rt, w.reads, sink);
  const auto b2 = session.align_batch(rt, w.reads, sink);

  // Batch counters are deltas: their sum is the session cumulative total.
  const auto total = session.seed_cache_counters();
  EXPECT_EQ(b1.seed_cache.hits + b2.seed_cache.hits, total.hits);
  EXPECT_EQ(b1.seed_cache.misses + b2.seed_cache.misses, total.misses);

  // The second pass over identical reads hits the warm session caches at
  // least as often as the cold first pass.
  EXPECT_GE(b2.seed_cache.hits, b1.seed_cache.hits);
  EXPECT_GE(b2.target_cache.hits, b1.target_cache.hits);
}

TEST(Session, SinksAgreeAndSamStreamsEveryBatch) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());

  VectorSink vec(rt.nranks());
  CountingSink count;
  std::ostringstream sam_text;
  SamStreamSink sam(sam_text, ref);
  TeeSink tee({&vec, &count, &sam});

  const auto b1 = session.align_batch(rt, w.reads, tee);
  const auto records_b1 = vec.take();
  const auto b2 = session.align_batch(rt, w.reads, tee);
  const auto records_b2 = vec.take();

  EXPECT_EQ(records_b1.size(), b1.stats.alignments_reported);
  EXPECT_EQ(count.records(), b1.stats.alignments_reported +
                                 b2.stats.alignments_reported);
  EXPECT_EQ(sam.records_written(), count.records());

  // One header, then one line per record across both batches.
  std::istringstream in(sam_text.str());
  std::string line;
  std::size_t headers = 0, body = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '@') ++headers;
    else if (!line.empty()) ++body;
  }
  EXPECT_GE(headers, w.contigs.size() + 2);  // @HD + @SQs + @PG, written once
  EXPECT_EQ(body, count.records());
}

TEST(Session, BatchBackendReportsIdenticalRecordsOnEveryIsaTier) {
  // Every dispatch tier this host supports must be a drop-in for the scalar
  // tier (smith_waterman per candidate): same records in the same order,
  // same number of SW screens.
  const auto w = make_workload(25'000, 1.2, /*error=*/0.01);
  Runtime rt1(Topology(4, 2));
  const auto ref1 = IndexedReference::build(rt1, w.contigs, small_index());

  SessionConfig scalar = small_session();
  scalar.exact_match = false;  // force every candidate through the SW kernel
  scalar.extension.isa = mera::align::SwIsa::kScalar;
  AlignSession s1(ref1, scalar);
  VectorSink sink1(rt1.nranks());
  const auto res1 = s1.align_batch(rt1, w.reads, sink1);
  const auto r1 = sink1.take();
  ASSERT_GT(r1.size(), 0u);

  for (const mera::align::SwIsa isa :
       {mera::align::SwIsa::kScalar, mera::align::SwIsa::kSse2,
        mera::align::SwIsa::kAvx2, mera::align::SwIsa::kAvx512}) {
    if (!mera::align::isa_supported(isa)) continue;
    Runtime rt2(Topology(4, 2));
    const auto ref2 = IndexedReference::build(rt2, w.contigs, small_index());
    SessionConfig batch = scalar;
    batch.extension.isa = isa;
    AlignSession s2(ref2, batch);
    VectorSink sink2(rt2.nranks());
    const auto res2 = s2.align_batch(rt2, w.reads, sink2);
    const auto r2 = sink2.take();
    ASSERT_EQ(r1.size(), r2.size()) << mera::align::isa_name(isa);
    for (std::size_t i = 0; i < r1.size(); ++i)
      ASSERT_EQ(r1[i], r2[i]) << mera::align::isa_name(isa) << " i=" << i;
    // Every tier must screen exactly the same candidate set.
    EXPECT_EQ(res1.stats.sw_calls, res2.stats.sw_calls)
        << mera::align::isa_name(isa);
  }
}

TEST(Session, UnmarkedReferenceDisablesExactMatchPath) {
  const auto w = make_workload(20'000, 1.0);
  Runtime rt(Topology(4, 2));
  IndexConfig ic = small_index();
  ic.exact_match = false;  // no index.mark -> flags are not trustworthy
  const auto ref = IndexedReference::build(rt, w.contigs, ic);
  EXPECT_FALSE(ref.exact_match_marked());
  EXPECT_EQ(ref.build_report().find("index.mark"), nullptr);

  AlignSession session(ref, small_session());  // cfg asks for exact_match
  CountingSink sink;
  const auto res = session.align_batch(rt, w.reads, sink);
  EXPECT_EQ(res.stats.exact_match_reads, 0u);
  EXPECT_GT(res.stats.reads_aligned, 0u);
}

TEST(Session, TopologyMismatchIsRejected) {
  const auto w = make_workload(10'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  CountingSink sink;
  Runtime other(Topology(2, 2));
  EXPECT_THROW((void)session.align_batch(other, w.reads, sink),
               std::invalid_argument);
}

TEST(Session, ZeroMaxHitsIsRejected) {
  // A seed that keeps no hit could never seed an alignment.
  const auto w = make_workload(10'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  SessionConfig cfg = small_session();
  cfg.max_hits_per_seed = 0;
  EXPECT_THROW((void)AlignSession(ref, cfg), std::invalid_argument);
}

}  // namespace
