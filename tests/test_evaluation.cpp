#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace {

using namespace mera;
using core::AlignmentRecord;
using core::EvalOptions;

struct Truthy {
  std::string genome;
  std::vector<seq::SeqRecord> contigs;
  std::vector<seq::SeqRecord> reads;
};

Truthy make(double error_rate, double junk, std::uint64_t seed = 51) {
  Truthy t;
  t.genome = seq::simulate_genome({.length = 25'000, .rng_seed = seed});
  seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  t.contigs = seq::chop_into_contigs(t.genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = 1.5;
  rp.error_rate = error_rate;
  rp.junk_fraction = junk;
  rp.rng_seed = seed + 2;
  t.reads = seq::simulate_reads(t.genome, rp);
  return t;
}

TEST(Evaluation, PerfectAlignerScoresPerfectly) {
  const auto t = make(0.0, 0.0);
  // Hand-build "alignments": place every read exactly at its truth if it
  // falls inside one contig.
  std::vector<AlignmentRecord> alignments;
  for (const auto& r : t.reads) {
    const auto truth = seq::parse_read_truth(r.name);
    for (std::uint32_t cid = 0; cid < t.contigs.size(); ++cid) {
      const auto ct = seq::parse_contig_truth(t.contigs[cid].name);
      if (truth.pos >= ct.start && truth.pos + r.seq.size() <= ct.end) {
        AlignmentRecord a;
        a.query_name = r.name;
        a.target_id = cid;
        a.t_begin = truth.pos - ct.start;
        a.t_end = a.t_begin + r.seq.size();
        a.reverse = truth.reverse;
        a.score = 160;
        alignments.push_back(std::move(a));
        break;
      }
    }
  }
  const auto res = core::evaluate_alignments(t.contigs, t.reads, alignments,
                                             {21, 3}, t.genome);
  EXPECT_EQ(res.misplaced, 0u);
  EXPECT_EQ(res.junk_aligned, 0u);
  EXPECT_EQ(res.correctly_placed, alignments.size());
  EXPECT_GT(res.placement_precision(), 0.999);
  EXPECT_GE(res.findable_reads, res.correctly_placed);
}

TEST(Evaluation, MisplacedAlignmentsAreCounted) {
  const auto t = make(0.0, 0.0);
  std::vector<AlignmentRecord> alignments;
  AlignmentRecord a;
  a.query_name = t.reads[0].name;
  a.target_id = 0;
  a.t_begin = 999999;  // nowhere near the truth
  a.score = 10;
  alignments.push_back(a);
  const auto res =
      core::evaluate_alignments(t.contigs, t.reads, alignments, {21, 3});
  EXPECT_EQ(res.misplaced, 1u);
  EXPECT_EQ(res.correctly_placed, 0u);
}

TEST(Evaluation, JunkAlignmentsAreFalsePositives) {
  const auto t = make(0.0, 0.3);
  std::vector<AlignmentRecord> alignments;
  for (const auto& r : t.reads) {
    if (!seq::parse_read_truth(r.name).junk) continue;
    AlignmentRecord a;
    a.query_name = r.name;
    a.target_id = 0;
    a.score = 5;
    alignments.push_back(a);
    break;
  }
  ASSERT_EQ(alignments.size(), 1u);
  const auto res =
      core::evaluate_alignments(t.contigs, t.reads, alignments, {21, 3});
  EXPECT_EQ(res.junk_aligned, 1u);
}

TEST(Evaluation, FindableExcludesErrorSaturatedReads) {
  // A read with an error every < k bases has no clean k-stretch.
  const auto t = make(0.0, 0.0, 61);
  seq::SeqRecord read;
  const auto truth_pos = 5000u;
  read.seq = t.genome.substr(truth_pos, 80);
  for (std::size_t i = 0; i < read.seq.size(); i += 10)
    read.seq[i] = seq::complement_base(read.seq[i]);  // error every 10 bp
  read.name = "r0;pos=" + std::to_string(truth_pos) + ";strand=+";
  EXPECT_FALSE(core::read_is_findable(read, t.genome, t.contigs, 21));
  // The same read *is* findable with a smaller seed.
  EXPECT_TRUE(core::read_is_findable(read, t.genome, t.contigs, 7));
}

TEST(Evaluation, MerAlignerRecallIsNearTheSeedTheoreticBound) {
  // The paper's guarantee: every alignment sharing a clean k-stretch with a
  // target is found. So recall over *findable* reads should be ~100%.
  const auto t = make(0.01, 0.02);
  core::IndexConfig cfg;
  cfg.k = 21;
  cfg.buffer_S = 64;
  cfg.fragment_len = 512;
  pgas::Runtime rt(pgas::Topology(4, 2));
  const auto ref = core::IndexedReference::build(rt, t.contigs, cfg);
  core::AlignSession session(ref);
  core::VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, t.reads, sink);
  const auto ev = core::evaluate_alignments(t.contigs, t.reads, sink.take(),
                                            {cfg.k, 5}, t.genome);
  EXPECT_GT(ev.recall_vs_findable(), 0.98);
  EXPECT_GT(ev.placement_precision(), 0.95);
  EXPECT_LT(ev.junk_aligned, t.reads.size() / 100);
}

TEST(Evaluation, PrintIsReadable) {
  core::EvalResult r;
  r.total_reads = 100;
  r.aligned_reads = 90;
  r.correctly_placed = 88;
  r.misplaced = 2;
  r.findable_reads = 92;
  std::ostringstream os;
  r.print(os);
  EXPECT_NE(os.str().find("aligned"), std::string::npos);
  EXPECT_NE(os.str().find("recall"), std::string::npos);
}

}  // namespace
