// End-to-end integration tests: file-based pipeline (FASTA + SeqDB -> SAM),
// merAligner-vs-baseline comparisons, and the paper's headline structural
// claims at test scale.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "baseline/replicated_aligner.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/indexed_reference.hpp"
#include "seq/fasta.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "seq/seqdb.hpp"

namespace {

using namespace mera;
using core::AlignSession;
using core::CountingSink;
using core::IndexedReference;
using core::VectorSink;
using pgas::Runtime;
using pgas::Topology;
using seq::SeqRecord;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mera_integ_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);

    genome_ = seq::simulate_genome({.length = 30'000, .rng_seed = 11});
    contigs_ = seq::chop_into_contigs(genome_, {.rng_seed = 12});
    seq::ReadSimParams rp;
    rp.read_len = 80;
    rp.depth = 1.5;
    rp.error_rate = 0.004;
    rp.junk_fraction = 0.01;
    rp.rng_seed = 13;
    reads_ = seq::simulate_reads(genome_, rp);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& n) const { return (dir_ / n).string(); }

  static core::IndexConfig index_cfg() {
    core::IndexConfig c;
    c.k = 21;
    c.buffer_S = 64;
    c.fragment_len = 512;
    return c;
  }

  std::filesystem::path dir_;
  std::string genome_;
  std::vector<SeqRecord> contigs_;
  std::vector<SeqRecord> reads_;
};

TEST_F(IntegrationTest, FileBasedPipelineProducesValidSam) {
  write_fasta(path("contigs.fa"), contigs_);
  seq::write_seqdb(path("reads.sdb"), reads_, /*store_quality=*/false);

  Runtime rt(Topology(4, 2));
  const auto ref =
      IndexedReference::build_from_fasta(rt, path("contigs.fa"), index_cfg());
  AlignSession session(ref);
  std::uint64_t alignments = 0;
  {
    core::SamFileSink sam(path("out.sam"), ref);
    const auto res =
        session.align_batch(rt, core::load_read_batch(path("reads.sdb")), sam);
    EXPECT_EQ(res.stats.reads_processed, reads_.size());
    EXPECT_GT(res.stats.aligned_fraction(), 0.8);
    alignments = res.stats.alignments_reported;
  }

  // SAM sanity: header lines + one line per alignment, valid columns.
  std::ifstream sam(path("out.sam"));
  ASSERT_TRUE(sam.good());
  std::size_t headers = 0, records = 0;
  std::string line;
  while (std::getline(sam, line)) {
    if (line.empty()) continue;
    if (line[0] == '@') {
      ++headers;
      continue;
    }
    ++records;
    // 11 mandatory fields minimum.
    std::size_t tabs = 0;
    for (char ch : line) tabs += ch == '\t' ? 1u : 0u;
    EXPECT_GE(tabs, 10u);
  }
  EXPECT_GE(headers, contigs_.size() + 2);  // @HD + @SQs + @PG
  EXPECT_EQ(records, alignments);
}

TEST_F(IntegrationTest, FileAndMemoryPathsAgree) {
  write_fasta(path("contigs.fa"), contigs_);
  seq::write_seqdb(path("reads.sdb"), reads_, false);

  core::SessionConfig sc;
  sc.permute_queries = false;
  Runtime rt1(Topology(4, 2)), rt2(Topology(4, 2));
  const auto mem_ref = IndexedReference::build(rt1, contigs_, index_cfg());
  const auto file_ref =
      IndexedReference::build_from_fasta(rt2, path("contigs.fa"), index_cfg());
  AlignSession mem_session(mem_ref, sc), file_session(file_ref, sc);
  CountingSink mem_sink, file_sink;
  const auto mem = mem_session.align_batch(rt1, reads_, mem_sink);
  const auto file = file_session.align_batch(
      rt2, core::load_read_batch(path("reads.sdb")), file_sink);
  EXPECT_EQ(mem.stats.reads_aligned, file.stats.reads_aligned);
  EXPECT_EQ(mem.stats.alignments_reported, file.stats.alignments_reported);
  EXPECT_EQ(mem.stats.exact_match_reads, file.stats.exact_match_reads);
}

TEST_F(IntegrationTest, EndToEndBeatsSerialIndexBaselines) {
  // The Table II structural claim at test scale: merAligner's end-to-end
  // simulated time beats the replicated-serial-index baselines because index
  // construction parallelizes.
  Runtime rt1(Topology(8, 4));
  const auto ref = IndexedReference::build(rt1, contigs_, index_cfg());
  AlignSession session(ref);
  CountingSink sink;
  const auto batch = session.align_batch(rt1, reads_, sink);

  Runtime rt2(Topology(8, 4));
  baseline::BaselineConfig bcfg = baseline::BaselineConfig::bwamem_like(21);
  bcfg.threads_per_instance = 4;
  const auto bwa =
      baseline::ReplicatedIndexAligner(bcfg).align(rt2, contigs_, reads_);

  EXPECT_LT(ref.build_report().total_time_s() + batch.total_time_s(),
            bwa.total_time_s());
  // And the gap comes from the index phase specifically.
  EXPECT_LT(ref.build_report().time_of("index.build"),
            bwa.serial_index_time_s());
}

TEST_F(IntegrationTest, IndexConstructionScalesMappingDoesToo) {
  // merAligner's per-rank index build work shrinks with rank count
  // (Figure 8's near-linear construction scaling).
  // The scaling claim is about per-rank work, so pin the scalar tier
  // (smith_waterman per candidate): the SIMD default makes this workload's
  // align phase so small that fixed per-rank overhead would dominate it.
  core::SessionConfig sc;
  sc.extension.isa = mera::align::SwIsa::kScalar;
  struct CpuMax {
    double build, align;
  };
  // Few-ms CPU timings on a shared host: keep the best of three runs per
  // rank count, as Baseline.SerialBuildDoesNotScaleWithRanks does.
  auto cpu_max_of = [&](int nranks) {
    CpuMax best{std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity()};
    for (int rep = 0; rep < 3; ++rep) {
      Runtime rt(Topology(nranks, 2));
      const auto ref = IndexedReference::build(rt, contigs_, index_cfg());
      AlignSession session(ref, sc);
      CountingSink sink;
      const auto batch = session.align_batch(rt, reads_, sink);
      best.build = std::min(
          best.build, ref.build_report().find("index.build")->cpu_max());
      best.align = std::min(best.align, batch.report.find("align")->cpu_max());
    }
    return best;
  };
  const CpuMax one = cpu_max_of(1);
  const CpuMax eight = cpu_max_of(8);
  EXPECT_LT(eight.build, one.build / 3.0);
  EXPECT_LT(eight.align, one.align / 3.0);
}

TEST_F(IntegrationTest, ReverseStrandReadsAreFoundWithCorrectStrandFlag) {
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, contigs_, index_cfg());
  AlignSession session(ref);
  VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, reads_, sink);
  std::size_t rev_truth = 0, rev_found_as_rev = 0;
  std::map<std::string, bool> found_rev;
  for (const auto& a : sink.take())
    if (a.exact) found_rev[a.query_name] = a.reverse;
  for (const auto& r : reads_) {
    const auto t = seq::parse_read_truth(r.name);
    if (t.junk || !t.reverse) continue;
    const auto it = found_rev.find(r.name);
    if (it == found_rev.end()) continue;
    ++rev_truth;
    rev_found_as_rev += it->second ? 1u : 0u;
  }
  ASSERT_GT(rev_truth, 50u);
  EXPECT_GT(static_cast<double>(rev_found_as_rev) /
                static_cast<double>(rev_truth),
            0.97);
}

TEST_F(IntegrationTest, ScaffoldingUseCase_PairedReadsLinkContigs) {
  // The Meraculous motivation: align paired reads to contigs; pairs whose
  // mates land on different contigs witness contig adjacency.
  seq::ReadSimParams rp;
  rp.read_len = 70;
  rp.depth = 3.0;
  rp.paired = true;
  rp.insert_mean = 400;
  rp.insert_sd = 20;
  rp.grouped = false;
  rp.rng_seed = 21;
  const auto paired = simulate_reads(genome_, rp);

  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, contigs_, index_cfg());
  core::SessionConfig sc;
  sc.permute_queries = false;
  AlignSession session(ref, sc);
  VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, paired, sink);

  // Best alignment per read.
  std::map<std::string, std::uint32_t> best_target;
  std::map<std::string, int> best_score;
  for (const auto& a : sink.take()) {
    if (a.score > best_score[a.query_name]) {
      best_score[a.query_name] = a.score;
      best_target[a.query_name] = a.target_id;
    }
  }
  std::size_t cross_links = 0;
  for (std::size_t i = 0; i + 1 < paired.size(); i += 2) {
    const auto a = best_target.find(paired[i].name);
    const auto b = best_target.find(paired[i + 1].name);
    if (a != best_target.end() && b != best_target.end() &&
        a->second != b->second)
      ++cross_links;
  }
  // With 400bp inserts and ~2-3kb contigs, a healthy share of pairs spans
  // a contig boundary.
  EXPECT_GT(cross_links, 20u);
}

}  // namespace
