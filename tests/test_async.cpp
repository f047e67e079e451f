// The async execution paths: parallel shard dispatch
// (ShardedSessionConfig::shard_parallelism) and double-buffered file-batch
// streaming (core::BatchPrefetcher behind align_batch_files).
//
// The contract under test: concurrency changes SECONDS, never BYTES. A
// K-shard batch driven by J pool workers must emit the records, SAM content
// and work totals of the serial shard loop bit-for-bit, for every K, on the
// scalar and the auto ISA tier; a prefetched file stream must emit exactly what a
// per-file load-then-align loop emits, in the same order.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/indexed_reference.hpp"
#include "exec/thread_pool.hpp"
#include "seq/fastq.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "seq/seqdb.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using namespace mera;
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
                       std::uint64_t seed = 11) {
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
  rp.error_rate = 0.005;
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

/// Caches off so EVERY stat — including the modeled comm seconds — is
/// deterministic and can be compared exactly between two runs. (Node-cache
/// hit counts depend on rank-thread interleaving, with or without a shard
/// executor; everything else is scheduling-invariant.)
core::SessionConfig cacheless_session() {
  core::SessionConfig sc;
  sc.seed_cache = false;
  sc.target_cache = false;
  sc.permute_queries = false;
  sc.exact_match = false;
  sc.max_hits_per_seed = 4096;
  return sc;
}

void expect_same_deterministic_stats(const core::PipelineStats& a,
                                     const core::PipelineStats& b) {
  EXPECT_EQ(a.reads_processed, b.reads_processed);
  EXPECT_EQ(a.reads_aligned, b.reads_aligned);
  EXPECT_EQ(a.alignments_reported, b.alignments_reported);
  EXPECT_EQ(a.seed_lookups, b.seed_lookups);
  EXPECT_EQ(a.target_fetches, b.target_fetches);
  EXPECT_EQ(a.sw_calls, b.sw_calls);
  EXPECT_EQ(a.memcmp_calls, b.memcmp_calls);
  EXPECT_EQ(a.exact_match_reads, b.exact_match_reads);
  EXPECT_EQ(a.hits_truncated, b.hits_truncated);
}

// ---------------------------------------------------------------------------
// Parallel shard dispatch == serial shard loop, bit for bit
// ---------------------------------------------------------------------------

TEST(ParallelShards, BitIdenticalToSerialForEveryKAndKernel) {
  const auto w = make_workload(25'000, 1.0);

  for (const SwIsa isa : {SwIsa::kScalar, SwIsa::kAuto}) {
    core::SessionConfig sc = cacheless_session();
    sc.extension.isa = isa;

    for (const int K : {1, 2, 4}) {
      Runtime rt(Topology(2, 2));
      const auto ref =
          shard::ShardedReference::build(rt, w.contigs, K, small_index());

      auto run = [&](int J, std::string* sam_out,
                     core::PipelineStats* stats_out) {
        shard::ShardedAlignSession session(
            ref, shard::ShardedSessionConfig{sc, J});
        core::VectorSink vec(rt.nranks());
        std::ostringstream sam_text;
        core::SamStreamSink sam(sam_text, ref.sam_targets(), rt.nranks());
        core::TeeSink tee({&vec, &sam});
        const auto res = session.align_batch(rt, w.reads, tee);
        EXPECT_EQ(res.shard_parallelism, std::min(J, K));
        EXPECT_GT(res.wall_s, 0.0);
        *sam_out = sam_text.str();
        *stats_out = res.stats;
        return vec.take();
      };

      std::string sam_serial, sam_parallel;
      core::PipelineStats st_serial, st_parallel;
      const auto serial = run(1, &sam_serial, &st_serial);
      const auto parallel = run(K, &sam_parallel, &st_parallel);

      ASSERT_GT(serial.size(), 0u);
      ASSERT_EQ(parallel.size(), serial.size())
          << "K=" << K << " isa=" << isa_name(isa);
      // Emission ORDER must match, not just the record set — the executor
      // may not even reorder ties.
      for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(parallel[i], serial[i])
            << "record " << i << " K=" << K
            << " isa=" << isa_name(isa);
      EXPECT_EQ(sam_parallel, sam_serial);
      expect_same_deterministic_stats(st_parallel, st_serial);
      // Caches are off: even the modeled comm seconds must agree exactly.
      EXPECT_EQ(st_parallel.comm_lookup_s, st_serial.comm_lookup_s);
      EXPECT_EQ(st_parallel.comm_fetch_s, st_serial.comm_fetch_s);
    }
  }
}

TEST(ParallelShards, DefaultConfigWithCachesAndExactMatchStaysIdentical) {
  // The production config (caches on, Lemma-1 on, permutation on, hit cap):
  // per-shard work is identical under any executor, so records and the
  // scheduling-invariant counters still match exactly.
  const auto w = make_workload(20'000, 1.0, /*seed=*/23);
  Runtime rt(Topology(2, 2));
  const auto ref =
      shard::ShardedReference::build(rt, w.contigs, 3, small_index());

  auto run = [&](int J, core::PipelineStats* stats_out) {
    core::SessionConfig sc;  // defaults: caches, exact-match, permutation
    shard::ShardedAlignSession session(ref,
                                       shard::ShardedSessionConfig{sc, J});
    core::VectorSink vec(rt.nranks());
    const auto res = session.align_batch(rt, w.reads, vec);
    *stats_out = res.stats;
    return vec.take();
  };

  core::PipelineStats st_serial, st_parallel;
  const auto serial = run(1, &st_serial);
  const auto parallel = run(3, &st_parallel);
  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]) << "record " << i;
  expect_same_deterministic_stats(st_parallel, st_serial);
}

TEST(ParallelShards, EffectiveParallelismResolvesAutoAndClamps) {
  const auto w = make_workload(12'000, 0.3);
  Runtime rt(Topology(2, 2));
  const auto ref =
      shard::ShardedReference::build(rt, w.contigs, 4, small_index());

  shard::ShardedAlignSession auto_session(ref, cacheless_session());
  EXPECT_EQ(auto_session.sharded_config().shard_parallelism, 0);
  EXPECT_GE(auto_session.effective_parallelism(rt.nranks()), 1);
  EXPECT_LE(auto_session.effective_parallelism(rt.nranks()), 4);

  shard::ShardedAlignSession wide(
      ref, shard::ShardedSessionConfig{cacheless_session(), 64});
  EXPECT_EQ(wide.effective_parallelism(rt.nranks()), 4);  // clamped to K
}

TEST(ParallelShards, ExceptionsPropagateFromPoolWorkers) {
  const auto w = make_workload(12'000, 0.3);
  Runtime build_rt(Topology(2, 2));
  const auto ref =
      shard::ShardedReference::build(build_rt, w.contigs, 2, small_index());
  shard::ShardedAlignSession session(
      ref, shard::ShardedSessionConfig{cacheless_session(), 2});
  core::CountingSink sink;
  // A mismatched runtime makes every per-shard AlignSession throw on a pool
  // worker; TaskGroup must carry the earliest shard's exception back.
  Runtime wrong(Topology(4, 1));
  EXPECT_THROW((void)session.align_batch(wrong, w.reads, sink),
               std::invalid_argument);
  // The session survives the failed batch and still runs correctly.
  const auto res = session.align_batch(build_rt, w.reads, sink);
  EXPECT_EQ(res.shard_parallelism, 2);
  EXPECT_GT(res.stats.alignments_reported, 0u);
}

TEST(ParallelShards, ScratchReuseKeepsBatchesIndependent) {
  // Three batches through one session (collector/merge buffers are reused):
  // every batch must produce the same stream as a fresh serial session.
  const auto w = make_workload(18'000, 0.8, /*seed=*/31);
  Runtime rt(Topology(2, 2));
  const auto ref =
      shard::ShardedReference::build(rt, w.contigs, 2, small_index());
  shard::ShardedAlignSession reused(
      ref, shard::ShardedSessionConfig{cacheless_session(), 2});
  for (int round = 0; round < 3; ++round) {
    shard::ShardedAlignSession fresh(
        ref, shard::ShardedSessionConfig{cacheless_session(), 1});
    core::VectorSink v_reused(rt.nranks()), v_fresh(rt.nranks());
    (void)reused.align_batch(rt, w.reads, v_reused);
    (void)fresh.align_batch(rt, w.reads, v_fresh);
    const auto got = v_reused.take();
    const auto want = v_fresh.take();
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "round " << round << " record " << i;
  }
  EXPECT_EQ(reused.batches_aligned(), 3u);
}

// ---------------------------------------------------------------------------
// Prefetched file streaming == a per-file load-then-align loop, bit for bit
// ---------------------------------------------------------------------------

std::vector<std::string> write_seqdb_batches(const Workload& w,
                                             const std::string& stem,
                                             std::size_t nbatches) {
  std::vector<std::string> paths;
  const std::size_t per = w.reads.size() / nbatches;
  for (std::size_t b = 0; b < nbatches; ++b) {
    const std::size_t lo = b * per;
    const std::size_t hi = b + 1 == nbatches ? w.reads.size() : lo + per;
    paths.push_back(stem + std::to_string(b) + ".sdb");
    seq::SeqDBWriter db(paths.back());
    for (std::size_t i = lo; i < hi; ++i) db.add(w.reads[i]);
  }
  return paths;
}

void remove_all(const std::vector<std::string>& paths) {
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(BatchPrefetch, StreamBitIdenticalToPerFileSynchronousPath) {
  const auto w = make_workload(22'000, 1.0, /*seed=*/47);
  const auto paths = write_seqdb_batches(w, "test_async_stream_", 3);

  Runtime rt(Topology(2, 2));
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());
  core::SessionConfig sc;  // defaults incl. Section IV-B permutation

  // Reference run: load each file, then align it, one call per batch.
  std::ostringstream sam_sync;
  core::PipelineStats st_sync;
  std::vector<AlignmentRecord> rec_sync;
  {
    core::AlignSession session(ref, sc);
    core::VectorSink vec(rt.nranks());
    core::SamStreamSink sam(sam_sync, ref);
    core::TeeSink tee({&vec, &sam});
    for (const auto& p : paths) {
      const auto res = session.align_batch(rt, core::load_read_batch(p), tee);
      st_sync += res.stats;
    }
    rec_sync = vec.take();
  }

  // Prefetched stream: same files, background loads on a caller-owned pool,
  // same session config.
  std::ostringstream sam_pf;
  {
    exec::ThreadPool pool(2);
    core::FileStreamOptions opt;
    opt.pool = &pool;
    core::AlignSession session(ref, sc);
    core::VectorSink vec(rt.nranks());
    core::SamStreamSink sam(sam_pf, ref);
    core::TeeSink tee({&vec, &sam});
    const auto stream = session.align_batch_files(rt, paths, tee, opt);
    ASSERT_EQ(stream.batches.size(), paths.size());
    EXPECT_GT(stream.wall_s, 0.0);
    EXPECT_GT(stream.load_wall_s, 0.0);
    expect_same_deterministic_stats(stream.stats, st_sync);
    // The stream report is the batches' phases in order, no index phases.
    std::size_t aligns = 0;
    for (const auto& ph : stream.report.phases) {
      aligns += ph.name == "align" ? 1 : 0;
      EXPECT_NE(ph.name, "index.build");
      EXPECT_NE(ph.name, "index.mark");
    }
    EXPECT_EQ(aligns, paths.size());

    const auto rec_pf = vec.take();
    ASSERT_EQ(rec_pf.size(), rec_sync.size());
    // Same permutation, same rank partition: emission order matches exactly.
    for (std::size_t i = 0; i < rec_pf.size(); ++i)
      ASSERT_EQ(rec_pf[i], rec_sync[i]) << "record " << i;
  }
  EXPECT_EQ(sam_pf.str(), sam_sync.str());
  remove_all(paths);
}

TEST(BatchPrefetch, FastqBatchesLoadDirectlyAndMatchSeqdbConversion) {
  const auto w = make_workload(15'000, 0.6, /*seed=*/61);
  const std::string fastq = "test_async_batch.fastq";
  const std::string sdb = "test_async_batch.sdb";
  seq::write_fastq(fastq, std::vector<SeqRecord>(w.reads.begin(),
                                                 w.reads.end()));
  seq::fastq_to_seqdb(fastq, sdb);

  // The loader parses FASTQ straight into the records the SeqDB holds.
  const auto direct = core::load_read_batch(fastq);
  const auto converted = core::load_read_batch(sdb);
  ASSERT_EQ(direct.size(), converted.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    ASSERT_EQ(direct[i], converted[i]) << "record " << i;

  // And the aligned stream agrees across input formats.
  Runtime rt(Topology(2, 2));
  const auto ref = core::IndexedReference::build(rt, w.contigs, small_index());
  auto run = [&](const std::string& path) {
    core::AlignSession session(ref, cacheless_session());
    core::VectorSink vec(rt.nranks());
    (void)session.align_batch_files(rt, {path}, vec);
    return vec.take();
  };
  const auto from_fastq = run(fastq);
  const auto from_sdb = run(sdb);
  ASSERT_EQ(from_fastq.size(), from_sdb.size());
  for (std::size_t i = 0; i < from_fastq.size(); ++i)
    ASSERT_EQ(from_fastq[i], from_sdb[i]) << "record " << i;

  std::remove(fastq.c_str());
  std::remove(sdb.c_str());
}

TEST(BatchPrefetch, FastqSniffIsCaseInsensitive) {
  // Regression: '.FASTQ'/'.Fq' files fell through to the SeqDB reader and
  // died with a misleading SeqDB parse error. The sniff is extension-only
  // and must not care about case.
  EXPECT_TRUE(core::looks_like_fastq("reads.fastq"));
  EXPECT_TRUE(core::looks_like_fastq("reads.FASTQ"));
  EXPECT_TRUE(core::looks_like_fastq("READS.FaStQ"));
  EXPECT_TRUE(core::looks_like_fastq("reads.fq"));
  EXPECT_TRUE(core::looks_like_fastq("reads.Fq"));
  EXPECT_FALSE(core::looks_like_fastq("reads.sdb"));
  EXPECT_FALSE(core::looks_like_fastq("reads.fastq.sdb"));
  EXPECT_FALSE(core::looks_like_fastq("fq"));  // extension, not a basename

  const auto w = make_workload(8'000, 0.4, /*seed=*/62);
  const std::string upper = "test_async_batch_upper.FASTQ";
  seq::write_fastq(upper, std::vector<SeqRecord>(w.reads.begin(),
                                                 w.reads.end()));
  const auto records = core::load_read_batch(upper);
  ASSERT_EQ(records.size(), w.reads.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_EQ(records[i], w.reads[i]) << "record " << i;
  std::remove(upper.c_str());
}

TEST(BatchPrefetch, SeqdbFallbackErrorNamesPathAndFormatGuess) {
  // A file that is neither FASTQ-named nor a SeqDB must fail with an error
  // that says which file and what the loader guessed, not a bare SeqDB
  // parse error.
  const std::string bogus = "test_async_bogus_batch.txt";
  {
    std::ofstream out(bogus);
    out << "this is not a SeqDB\n";
  }
  try {
    (void)core::load_read_batch(bogus);
    FAIL() << "expected load_read_batch to throw";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(bogus), std::string::npos) << msg;
    EXPECT_NE(msg.find("SeqDB"), std::string::npos) << msg;
    EXPECT_NE(msg.find("FASTQ"), std::string::npos) << msg;
  }
  std::remove(bogus.c_str());
}

TEST(BatchPrefetch, MissingFileIsReportedAsMissingNotAsSeqdbFailure) {
  // A nonexistent path used to fall through to the SeqDB reader and surface
  // as a bogus format error; it must say "no such file" and name the path.
  for (const char* missing :
       {"test_async_no_such_file.sdb", "test_async_no_such_file.fastq"}) {
    try {
      (void)core::load_read_batch(missing);
      FAIL() << "expected load_read_batch to throw for '" << missing << "'";
    } catch (const std::exception& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(missing), std::string::npos) << msg;
      EXPECT_NE(msg.find("no such file"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("SeqDB"), std::string::npos)
          << "a missing file is not a format error: " << msg;
    }
  }
}

TEST(BatchPrefetch, ExistingFilesStillLoadAfterTheMissingFileCheck) {
  const auto w = make_workload(8'000, 0.3, /*seed=*/63);
  const std::string fastq = "test_async_exists_check.fastq";
  seq::write_fastq(fastq, std::vector<SeqRecord>(w.reads.begin(),
                                                 w.reads.end()));
  EXPECT_EQ(core::load_read_batch(fastq).size(), w.reads.size());
  std::remove(fastq.c_str());
}

TEST(BatchPrefetch, LoadErrorsSurfaceOnTheCallingThread) {
  exec::ThreadPool pool(1);
  core::BatchPrefetcher prefetcher(pool, {"test_async_does_not_exist.sdb"});
  EXPECT_THROW((void)prefetcher.next(), std::exception);
}

TEST(BatchPrefetch, StreamContinuesPastAFailedLoad) {
  // A caller that catches a bad batch's error gets the remaining files, in
  // order, instead of a dead prefetcher.
  const auto w = make_workload(10'000, 0.3, /*seed=*/67);
  const auto good = write_seqdb_batches(w, "test_async_recover_", 1);
  exec::ThreadPool pool(1);
  core::BatchPrefetcher prefetcher(
      pool, {"test_async_does_not_exist.sdb", good[0]});
  EXPECT_THROW((void)prefetcher.next(), std::exception);
  const auto batch = prefetcher.next();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->path, good[0]);
  EXPECT_EQ(batch->records.size(), w.reads.size());
  EXPECT_FALSE(prefetcher.next().has_value());
  remove_all(good);
}

// ---------------------------------------------------------------------------
// Sharded session × prefetched streaming (both axes at once)
// ---------------------------------------------------------------------------

TEST(ShardedStream, PrefetchedParallelStreamMatchesSerialPerFilePath) {
  const auto w = make_workload(20'000, 0.8, /*seed=*/71);
  const auto paths = write_seqdb_batches(w, "test_async_sharded_", 3);

  Runtime rt(Topology(2, 2));
  const auto ref =
      shard::ShardedReference::build(rt, w.contigs, 2, small_index());
  core::SessionConfig sc;
  sc.exact_match = false;
  sc.max_hits_per_seed = 4096;  // comparable against any composition

  // Per-file load-then-align loop, serial shard dispatch.
  std::ostringstream sam_serial;
  std::vector<AlignmentRecord> rec_serial;
  {
    shard::ShardedAlignSession session(ref,
                                       shard::ShardedSessionConfig{sc, 1});
    core::VectorSink vec(rt.nranks());
    core::SamStreamSink sam(sam_serial, ref.sam_targets(), rt.nranks());
    core::TeeSink tee({&vec, &sam});
    for (const auto& p : paths)
      (void)session.align_batch(rt, core::load_read_batch(p), tee);
    rec_serial = vec.take();
  }

  // Prefetched stream with parallel shards — both new axes at once.
  std::ostringstream sam_async;
  {
    shard::ShardedAlignSession session(ref,
                                       shard::ShardedSessionConfig{sc, 2});
    core::VectorSink vec(rt.nranks());
    core::SamStreamSink sam(sam_async, ref.sam_targets(), rt.nranks());
    core::TeeSink tee({&vec, &sam});
    const auto stream = session.align_batch_files(rt, paths, tee);
    ASSERT_EQ(stream.batches.size(), paths.size());
    for (const auto& batch : stream.batches)
      EXPECT_EQ(batch.shard_parallelism, 2);
    EXPECT_GT(stream.wall_s, 0.0);

    const auto rec_async = vec.take();
    ASSERT_GT(rec_serial.size(), 0u);
    ASSERT_EQ(rec_async.size(), rec_serial.size());
    for (std::size_t i = 0; i < rec_async.size(); ++i)
      ASSERT_EQ(rec_async[i], rec_serial[i]) << "record " << i;
  }
  EXPECT_EQ(sam_async.str(), sam_serial.str());
  remove_all(paths);
}

}  // namespace
