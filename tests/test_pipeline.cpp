// The aligner end to end on the two-phase API: IndexedReference::build
// (index construction, once) + AlignSession::align_batch (aligning).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <random>
#include <tuple>

#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "core/sam_writer.hpp"

#include "seq/dna.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "test_util.hpp"

namespace {

using namespace mera::core;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

struct Workload {
  std::string genome;
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth, int k,
                       double error_rate = 0.0, double junk = 0.0,
                       std::uint64_t seed = 1) {
  Workload w;
  mera::seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = 0.02;
  gp.rng_seed = seed;
  w.genome = simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(w.genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = depth;
  rp.error_rate = error_rate;
  rp.junk_fraction = junk;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(w.genome, rp);
  (void)k;
  return w;
}

IndexConfig small_index() {
  IndexConfig ic;
  ic.k = 21;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

SessionConfig small_session() {
  SessionConfig sc;
  sc.seed_cache_capacity = 1u << 14;
  sc.target_cache_bytes = 8u << 20;
  return sc;
}

TEST(Pipeline, ErrorFreeReadsAllAlign) {
  const auto w = make_workload(40'000, 2.0, 21);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  CountingSink sink;
  const auto res = session.align_batch(rt, w.reads, sink);

  EXPECT_EQ(res.stats.reads_processed, w.reads.size());
  // Reads falling inside a contig must align; only reads straddling contig
  // gaps can fail. Contigs cover ~95% of the genome here.
  EXPECT_GT(res.stats.aligned_fraction(), 0.85);
  EXPECT_GT(res.stats.exact_match_reads, 0u);
}

TEST(Pipeline, AlignmentsMatchGroundTruthPositions) {
  const auto w = make_workload(30'000, 1.5, 21);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, w.reads, sink);
  const auto alignments = sink.take();

  // Map contig name -> genome start for coordinate translation.
  std::map<std::string, std::size_t> contig_start;
  for (const auto& c : w.contigs)
    contig_start[c.name] = mera::seq::parse_contig_truth(c.name).start;

  // Index targets by id via a second pass: target ids follow input order.
  std::size_t checked = 0, correct = 0;
  for (const auto& a : alignments) {
    if (!a.exact) continue;  // exact records have unambiguous placement
    const auto truth = mera::seq::parse_read_truth(a.query_name);
    const auto& contig = w.contigs[a.target_id];
    const std::size_t genome_pos = contig_start[contig.name] + a.t_begin;
    ++checked;
    if (genome_pos == truth.pos && a.reverse == truth.reverse) ++correct;
  }
  ASSERT_GT(checked, 100u);
  // A read can legitimately exact-match a repeat elsewhere; demand 98%.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(checked), 0.98);
}

TEST(Pipeline, ReadsWithErrorsStillAlignViaSW) {
  const auto w = make_workload(30'000, 2.0, 21, /*error=*/0.01);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  CountingSink sink;
  const auto res = session.align_batch(rt, w.reads, sink);
  EXPECT_GT(res.stats.aligned_fraction(), 0.8);
  EXPECT_GT(res.stats.sw_calls, 0u);
  // Erroneous reads can't all use the exact path.
  EXPECT_LT(res.stats.exact_match_reads, res.stats.reads_aligned);
}

TEST(Pipeline, JunkReadsDoNotAlign) {
  const auto w = make_workload(30'000, 2.0, 21, 0.0, /*junk=*/0.2);
  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  VectorSink sink(rt.nranks());
  (void)session.align_batch(rt, w.reads, sink);
  std::size_t junk_aligned = 0, junk_total = 0;
  std::map<std::string, bool> aligned_names;
  for (const auto& a : sink.take()) aligned_names[a.query_name] = true;
  for (const auto& r : w.reads) {
    if (!mera::seq::parse_read_truth(r.name).junk) continue;
    ++junk_total;
    junk_aligned += aligned_names.count(r.name) ? 1u : 0u;
  }
  ASSERT_GT(junk_total, 50u);
  EXPECT_LT(static_cast<double>(junk_aligned) / static_cast<double>(junk_total),
            0.01);
}

TEST(Pipeline, ResultsAreIdenticalAcrossRankCounts) {
  // The parallel decomposition must not change *what* is found.
  const auto w = make_workload(20'000, 1.0, 21);
  auto run_with = [&](int nranks, int ppn) {
    Runtime rt(Topology(nranks, ppn));
    const auto ref = IndexedReference::build(rt, w.contigs, small_index());
    SessionConfig sc = small_session();
    sc.permute_queries = false;  // keep order comparable
    AlignSession session(ref, sc);
    VectorSink sink(rt.nranks());
    (void)session.align_batch(rt, w.reads, sink);
    auto alignments = sink.take();
    // Canonical sort for comparison.
    std::sort(alignments.begin(), alignments.end(),
              [](const AlignmentRecord& a, const AlignmentRecord& b) {
                return std::tie(a.query_name, a.target_id, a.t_begin,
                                a.reverse) <
                       std::tie(b.query_name, b.target_id, b.t_begin,
                                b.reverse);
              });
    return alignments;
  };
  const auto r1 = run_with(1, 1);
  const auto r4 = run_with(4, 2);
  const auto r6 = run_with(6, 3);
  ASSERT_EQ(r1.size(), r4.size());
  ASSERT_EQ(r1.size(), r6.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].query_name, r4[i].query_name);
    EXPECT_EQ(r1[i].target_id, r4[i].target_id);
    EXPECT_EQ(r1[i].t_begin, r4[i].t_begin);
    EXPECT_EQ(r1[i].score, r6[i].score);
  }
}

TEST(Pipeline, OptimizationsDoNotChangeAlignedReadSet) {
  // Caches, aggregation and the exact-match path are performance features;
  // switching them off must leave reads_aligned unchanged.
  const auto w = make_workload(20'000, 1.0, 21, 0.005);
  auto aligned_with = [&](auto mutate) {
    Runtime rt(Topology(4, 2));
    IndexConfig ic = small_index();
    SessionConfig sc = small_session();
    mutate(ic, sc);
    const auto ref = IndexedReference::build(rt, w.contigs, ic);
    AlignSession session(ref, sc);
    CountingSink sink;
    return session.align_batch(rt, w.reads, sink).stats.reads_aligned;
  };
  const auto base = aligned_with([](IndexConfig&, SessionConfig&) {});
  EXPECT_EQ(base, aligned_with([](IndexConfig&, SessionConfig& s) {
              s.seed_cache = false;
            }));
  EXPECT_EQ(base, aligned_with([](IndexConfig&, SessionConfig& s) {
              s.target_cache = false;
            }));
  EXPECT_EQ(base, aligned_with([](IndexConfig& i, SessionConfig&) {
              i.aggregating_stores = false;
            }));
  EXPECT_EQ(base, aligned_with([](IndexConfig& i, SessionConfig&) {
              i.exact_match = false;
            }));
  EXPECT_EQ(base, aligned_with([](IndexConfig& i, SessionConfig&) {
              i.fragment_len = std::numeric_limits<std::size_t>::max();
            }));
}

TEST(Pipeline, ExactMatchOptReducesSWCallsAndLookups) {
  const auto w = make_workload(40'000, 2.0, 21);
  auto stats_with = [&](bool exact) {
    Runtime rt(Topology(4, 2));
    IndexConfig ic = small_index();
    ic.exact_match = exact;
    const auto ref = IndexedReference::build(rt, w.contigs, ic);
    AlignSession session(ref, small_session());
    CountingSink sink;
    return session.align_batch(rt, w.reads, sink).stats;
  };
  const auto on = stats_with(true);
  const auto off = stats_with(false);
  EXPECT_LT(on.sw_calls, off.sw_calls / 2);
  EXPECT_LT(on.seed_lookups, off.seed_lookups / 2);
  EXPECT_EQ(on.reads_aligned, off.reads_aligned);
}

TEST(Pipeline, ReverseStrandExactReadsOverAnInvertedRepeat) {
  // Three targets: `plain` holds no seed whose reverse complement is
  // indexed; `fwd_copy` holds a region R, and `inv_copy` holds R reverse
  // complemented with a substitution every 30 bases (an inverted repeat).
  // Every read is exact on the reverse strand:
  //  (a) over `plain`: one reverse exact record each, after two lookups;
  //  (b) over R in `fwd_copy`: their forward seeds hit `inv_copy`, so the
  //      forward strand yields Smith-Waterman records there, then the
  //      reverse strand yields the exact record on `fwd_copy`;
  //  (c) over `edge` at 470, across its fragment boundary (seeds from 492
  //      on lie in its second 512-base fragment): 35 bases of that second
  //      fragment sit reverse complemented in `edge_inv`, so as in (b).
  std::mt19937_64 rng(47);
  const auto dna = [&rng](std::size_t n) {
    return mera::testutil::random_dna(rng, n);
  };
  const std::string plain = dna(3000);
  const std::string region = dna(600);
  const std::string fwd_copy = dna(200) + region + dna(200);
  std::string inv = mera::seq::reverse_complement(region);
  for (std::size_t i = 15; i < inv.size(); i += 30)
    inv[i] = inv[i] == 'A' ? 'C' : 'A';
  const std::string inv_copy = dna(150) + inv + dna(150);
  const std::string edge = dna(1200);
  const std::string edge_inv =
      dna(100) + mera::seq::reverse_complement(edge.substr(505, 35)) + dna(100);
  const std::vector<SeqRecord> targets{
      {"plain", plain, ""},       {"fwd_copy", fwd_copy, ""},
      {"inv_copy", inv_copy, ""}, {"edge", edge, ""},
      {"edge_inv", edge_inv, ""}};

  constexpr std::size_t kLen = 80;
  std::vector<SeqRecord> reads_a, reads_b;
  for (std::size_t off = 10; off + kLen <= plain.size(); off += 100)
    reads_a.push_back({std::string("a").append(std::to_string(off)),
                       mera::seq::reverse_complement(plain.substr(off, kLen)),
                       ""});
  for (std::size_t off = 210; off + kLen <= 200 + region.size(); off += 100)
    reads_b.push_back({std::string("b").append(std::to_string(off)),
                       mera::seq::reverse_complement(fwd_copy.substr(off, kLen)),
                       ""});
  reads_b.push_back(
      {"c470", mera::seq::reverse_complement(edge.substr(470, kLen)), ""});

  Runtime rt(Topology(4, 2));
  const auto ref = IndexedReference::build(rt, targets, small_index());
  const auto name_of = [&](const AlignmentRecord& r) {
    return ref.targets().target_unsync(r.target_id).name;
  };
  AlignSession session(ref, small_session());
  const auto records_by_read = [&](const std::vector<SeqRecord>& reads) {
    VectorSink sink(rt.nranks());
    const auto res = session.align_batch(rt, reads, sink);
    std::map<std::string, std::vector<AlignmentRecord>> by_read;
    for (AlignmentRecord& r : sink.take())
      by_read[r.query_name].push_back(std::move(r));
    return std::pair{res.stats, by_read};
  };

  const auto [stats_a, recs_a] = records_by_read(reads_a);
  ASSERT_EQ(recs_a.size(), reads_a.size());
  for (const auto& [name, recs] : recs_a) {
    ASSERT_EQ(recs.size(), 1u) << name;
    EXPECT_TRUE(recs[0].reverse && recs[0].exact) << name;
    EXPECT_EQ(name_of(recs[0]), "plain") << name;
    EXPECT_EQ(recs[0].t_begin, std::stoul(name.substr(1))) << name;
  }
  EXPECT_EQ(stats_a.exact_match_reads, reads_a.size());
  // No seed of `plain` has its reverse complement indexed, so its fragments
  // carry no_rc_seeds and each (a) read stops at its second lookup: the
  // first window (no forward hits) and the last (the reverse exact try).
  EXPECT_LE(stats_a.seed_lookups, 2 * reads_a.size());

  const auto [stats_b, recs_b] = records_by_read(reads_b);
  ASSERT_EQ(recs_b.size(), reads_b.size());
  for (const auto& [name, recs] : recs_b) {
    ASSERT_GE(recs.size(), 2u) << name;
    const bool edge_read = name[0] == 'c';
    for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
      EXPECT_FALSE(recs[i].reverse || recs[i].exact) << name;
      EXPECT_EQ(name_of(recs[i]), edge_read ? "edge_inv" : "inv_copy") << name;
      if (!edge_read) {
        EXPECT_GT(recs[i].mismatches, 0) << name;
      }
    }
    EXPECT_TRUE(recs.back().reverse && recs.back().exact) << name;
    EXPECT_EQ(name_of(recs.back()), edge_read ? "edge" : "fwd_copy") << name;
    EXPECT_EQ(recs.back().t_begin, std::stoul(name.substr(1))) << name;
  }
  EXPECT_EQ(stats_b.exact_match_reads, reads_b.size());
}

TEST(Pipeline, LookupPipelineEdgeReads) {
  // A read's lookups run as a software pipeline over its windows (probes
  // and prefetches run ahead of the lookup the scan makes). Reads at its
  // edges: fewer windows than the pipeline's distances (shorter than k,
  // exactly k, k + 1), an N in the first or the last window, no window at
  // all, and 101/150 bp reads that take the exact path forward, in reverse,
  // or scan every window (substitutions, multi-copy seeds truncated by
  // max_hits). Each read's records must be byte-equal to what it gives when
  // aligned alone in a fresh session (on 2 and 4 ranks that block has fewer
  // reads than ranks), and the work counters must add up.
  std::mt19937_64 rng(29);
  const auto dna = [&rng](std::size_t n) {
    return mera::testutil::random_dna(rng, n);
  };
  const std::string plain = dna(4000);
  const std::string region = dna(400);
  std::vector<SeqRecord> targets{{"plain", plain, ""}};
  for (const char* name : {"rep1", "rep2", "rep3"})
    targets.push_back({name, dna(100) + region + dna(100), ""});

  const auto rc = [](const std::string& x) {
    return mera::seq::reverse_complement(x);
  };
  const auto mutate = [](std::string x, std::size_t every) {
    for (std::size_t i = every / 2; i < x.size(); i += every)
      x[i] = x[i] == 'A' ? 'C' : 'A';
    return x;
  };
  const auto with_n = [](std::string x, std::size_t at) {
    x[at] = 'N';
    return x;
  };
  const std::vector<std::pair<std::string, std::string>> named{
      {"short", plain.substr(100, 15)},
      {"exactly_k", plain.substr(200, 21)},
      {"k_plus_1", rc(plain.substr(300, 22))},
      {"fwd101", plain.substr(400, 101)},
      {"rev101", rc(plain.substr(600, 101))},
      {"sub101", mutate(plain.substr(800, 101), 30)},
      {"fwd150", plain.substr(1000, 150)},
      {"rev_sub150", rc(mutate(plain.substr(1200, 150), 40))},
      {"repeat101", region.substr(50, 101)},
      {"repeat_rev150", rc(mutate(region.substr(120, 150), 50))},
      {"n_first", with_n(plain.substr(1500, 101), 3)},
      {"n_last", with_n(rc(plain.substr(1700, 150)), 147)},
      {"all_n", std::string(101, 'N')},
      {"junk", dna(101)},
  };
  std::vector<SeqRecord> reads;
  std::map<std::string, std::string> seq_of;
  for (const auto& [name, seq] : named) {
    reads.push_back({name, seq, ""});
    seq_of[name] = seq;
  }

  SessionConfig sc = small_session();
  sc.max_hits_per_seed = 2;  // region's seeds have 3 hits
  const auto counters = [](const PipelineStats& st) {
    return std::array{st.seed_lookups, st.sw_calls, st.sw_cells,
                      st.exact_match_reads, st.hits_truncated};
  };
  for (const int nranks : {1, 2, 4}) {
    SCOPED_TRACE(nranks);
    Runtime rt(Topology(nranks, 2));
    const auto ref = IndexedReference::build(rt, targets, small_index());
    // SAM lines per read, in emission order.
    const auto sam_by_read = [&](const std::vector<SeqRecord>& batch,
                                 PipelineStats& stats) {
      AlignSession session(ref, sc);
      VectorSink sink(rt.nranks());
      stats = session.align_batch(rt, batch, sink).stats;
      std::map<std::string, std::string> by_read;
      for (const AlignmentRecord& r : sink.take())
        append_sam_record(by_read[r.query_name], r,
                          ref.targets().target_unsync(r.target_id).name,
                          seq_of.at(r.query_name));
      return by_read;
    };

    PipelineStats batch_stats;
    const auto batch = sam_by_read(reads, batch_stats);
    std::array<std::uint64_t, 5> alone_sum{};
    for (const SeqRecord& r : reads) {
      PipelineStats st;
      const auto alone = sam_by_read({r}, st);
      EXPECT_EQ(batch.count(r.name) ? batch.at(r.name) : "",
                alone.count(r.name) ? alone.at(r.name) : "")
          << r.name;
      for (std::size_t i = 0; i < alone_sum.size(); ++i)
        alone_sum[i] += counters(st)[i];
    }
    EXPECT_EQ(counters(batch_stats), alone_sum);
    // The batch reaches every path the edges are about.
    EXPECT_GT(batch_stats.exact_match_reads, 0u);
    EXPECT_GT(batch_stats.sw_calls, 0u);
    EXPECT_GT(batch_stats.hits_truncated, 0u);
    for (const char* name : {"fwd101", "rev101", "sub101", "n_first", "n_last",
                             "repeat101", "exactly_k", "k_plus_1"})
      EXPECT_TRUE(batch.count(name)) << name;
    for (const char* name : {"short", "all_n", "junk"})
      EXPECT_FALSE(batch.count(name)) << name;
  }
}

TEST(Pipeline, CachesReduceModeledCommunication) {
  const auto w = make_workload(40'000, 3.0, 21);
  auto comm_with = [&](bool caches) {
    Runtime rt(Topology(8, 2));  // 4 nodes -> plenty of off-node traffic
    const auto ref = IndexedReference::build(rt, w.contigs, small_index());
    SessionConfig sc = small_session();
    sc.seed_cache = caches;
    sc.target_cache = caches;
    sc.exact_match = false;      // keep lookup volume comparable
    sc.permute_queries = false;  // grouped order = locality the caches exploit
    AlignSession session(ref, sc);
    CountingSink sink;
    const auto res = session.align_batch(rt, w.reads, sink);
    const auto* ph = res.report.find("align");
    return ph->comm_max();
  };
  const double with_cache = comm_with(true);
  const double without = comm_with(false);
  EXPECT_LT(with_cache, without * 0.8);
}

TEST(Pipeline, AggregatingStoresSpeedUpIndexConstruction) {
  const auto w = make_workload(60'000, 0.5, 21);
  auto index_comm = [&](bool agg) {
    Runtime rt(Topology(8, 2));
    IndexConfig ic = small_index();
    ic.aggregating_stores = agg;
    const auto ref = IndexedReference::build(rt, w.contigs, ic);
    const auto* ph = ref.build_report().find("index.build");
    return ph->traffic.remote_msgs() + ph->traffic.atomics;
  };
  EXPECT_LT(index_comm(true) * 20, index_comm(false));
}

TEST(Pipeline, TruncationThresholdCapsWork) {
  // A highly repetitive genome: max_hits_per_seed bounds SW calls.
  mera::seq::GenomeParams gp;
  gp.length = 30'000;
  gp.repeat_fraction = 0.5;
  gp.repeat_divergence = 0.0;
  gp.repeat_unit_len = 500;
  gp.repeat_families = 1;
  const std::string genome = simulate_genome(gp);
  const auto contigs = mera::seq::chop_into_contigs(genome, {});
  mera::seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = 1.0;
  const auto reads = simulate_reads(genome, rp);

  auto sw_with = [&](std::size_t max_hits) {
    Runtime rt(Topology(4, 2));
    const auto ref = IndexedReference::build(rt, contigs, small_index());
    SessionConfig sc = small_session();
    sc.exact_match = false;
    sc.max_hits_per_seed = max_hits;
    AlignSession session(ref, sc);
    CountingSink sink;
    return session.align_batch(rt, reads, sink).stats;
  };
  const auto strict = sw_with(2);
  const auto loose = sw_with(64);
  EXPECT_LT(strict.sw_calls, loose.sw_calls);
  EXPECT_GT(strict.hits_truncated, 0u);
}

TEST(Pipeline, PhaseReportContainsAllPipelinePhases) {
  // The index phases belong to the build, the aligning phases to the batch;
  // appended they form the end-to-end report.
  const auto w = make_workload(10'000, 0.5, 21);
  Runtime rt(Topology(2, 2));
  const auto ref = IndexedReference::build(rt, w.contigs, small_index());
  AlignSession session(ref, small_session());
  CountingSink sink;
  const auto batch = session.align_batch(rt, w.reads, sink);
  for (const char* name : {"io.targets", "index.build", "index.mark"})
    EXPECT_NE(ref.build_report().find(name), nullptr) << name;
  for (const char* name : {"io.reads", "align"})
    EXPECT_NE(batch.report.find(name), nullptr) << name;
  mera::pgas::PhaseReport end_to_end = ref.build_report();
  end_to_end.append(batch.report);
  EXPECT_GT(end_to_end.total_time_s(), 0.0);
  EXPECT_GT(ref.index_entries(), 0u);
  EXPECT_GT(ref.single_copy_fraction(), 0.0);
}

TEST(Pipeline, FragmentationIncreasesSingleCopyFraction) {
  // Repeat-bearing genome: finer fragments keep more of the index eligible
  // for the Lemma-1 path (the point of Section IV-A's fragmentation).
  mera::seq::GenomeParams gp;
  gp.length = 60'000;
  gp.repeat_fraction = 0.15;
  gp.repeat_divergence = 0.0;
  const std::string genome = simulate_genome(gp);
  const auto contigs = mera::seq::chop_into_contigs(genome, {});

  auto frac_with = [&](std::size_t flen) {
    Runtime rt(Topology(4, 2));
    IndexConfig ic = small_index();
    ic.fragment_len = flen;
    return IndexedReference::build(rt, contigs, ic).single_copy_fraction();
  };
  const double fine = frac_with(256);
  const double whole = frac_with(std::numeric_limits<std::size_t>::max());
  EXPECT_GT(fine, whole);
}

}  // namespace
