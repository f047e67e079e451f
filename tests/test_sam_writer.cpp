#include "core/sam_writer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "core/alignment_sink.hpp"
#include "pgas/runtime.hpp"
#include "seq/dna.hpp"

namespace {

using namespace mera::core;
using mera::pgas::Rank;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

TargetStore make_store(const std::vector<SeqRecord>& targets) {
  TargetStore store(1, {21, 1u << 30});
  Runtime rt(Topology(1, 1));
  rt.run([&](Rank& r) {
    store.add_local_targets(r, targets);
    store.finish_construction(r);
  });
  return store;
}

std::string sam_line(const AlignmentRecord& rec, std::string_view target_name,
                     std::string_view query_seq) {
  std::string line;
  append_sam_record(line, rec, target_name, query_seq);
  return line;
}

/// The reference formatting: every column through std::ostream, the reverse
/// strand through seq::reverse_complement.
std::string oracle_line(const AlignmentRecord& rec,
                        const std::string& target_name,
                        const std::string& query_seq) {
  std::ostringstream os;
  os << rec.query_name << '\t' << (rec.reverse ? 16 : 0) << '\t'
     << target_name << '\t' << rec.t_begin + 1 << '\t'
     << (rec.exact ? 60 : 30) << '\t' << rec.cigar << "\t*\t0\t0\t"
     << (rec.reverse ? mera::seq::reverse_complement(query_seq) : query_seq)
     << "\t*\tAS:i:" << rec.score << "\tNM:i:" << rec.mismatches << '\n';
  return os.str();
}

TEST(SamWriter, HeaderListsAllTargets) {
  const auto store = make_store({{"ctgA", std::string(100, 'A'), ""},
                                 {"ctgB", std::string(50, 'C'), ""}});
  std::ostringstream os;
  write_sam_header(os, store);
  const std::string out = os.str();
  EXPECT_NE(out.find("@SQ\tSN:ctgA\tLN:100"), std::string::npos);
  EXPECT_NE(out.find("@SQ\tSN:ctgB\tLN:50"), std::string::npos);
  EXPECT_NE(out.find("@HD"), std::string::npos);
  EXPECT_NE(out.find("@PG"), std::string::npos);
}

TEST(SamWriter, ForwardRecordFields) {
  AlignmentRecord rec;
  rec.query_name = "read1";
  rec.target_id = 0;
  rec.reverse = false;
  rec.score = 20;
  rec.t_begin = 4;  // 0-based -> SAM POS 5
  rec.t_end = 14;
  rec.cigar = "10M";
  rec.mismatches = 1;
  EXPECT_EQ(sam_line(rec, "ctg", "ACGTACGTAC"),
            "read1\t0\tctg\t5\t30\t10M\t*\t0\t0\tACGTACGTAC\t*\tAS:i:20\t"
            "NM:i:1\n");
}

TEST(SamWriter, ReverseRecordSetsFlagAndRevcompsSeq) {
  AlignmentRecord rec;
  rec.query_name = "r";
  rec.target_id = 0;
  rec.reverse = true;
  rec.t_begin = 0;
  rec.cigar = std::string("4M");
  const std::string line = sam_line(rec, "ctg", "AACG");
  EXPECT_NE(line.find("\t16\t"), std::string::npos);  // 0x10
  EXPECT_NE(line.find("\tCGTT\t"), std::string::npos);
  EXPECT_EQ(line.find("AACG\t"), std::string::npos);
}

TEST(SamWriter, ExactAlignmentsGetHigherMapq) {
  AlignmentRecord exact, inexact;
  exact.query_name = inexact.query_name = "r";
  exact.cigar = inexact.cigar = std::string("4M");
  exact.exact = true;
  inexact.exact = false;
  EXPECT_NE(sam_line(exact, "ctg", "TTTT").find("\t60\t"), std::string::npos);
  EXPECT_NE(sam_line(inexact, "ctg", "TTTT").find("\t30\t"),
            std::string::npos);
}

/// A seeded random record that reaches every formatting branch: either
/// strand, N and lower-case bases, positions past 2^32, zero, negative and
/// many-digit scores, NM of 0 and above, names and CIGARs of many lengths.
struct RandomRecord {
  AlignmentRecord rec;
  std::string target_name;
  std::string seq;
};

RandomRecord random_record(std::mt19937_64& rng) {
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const auto text = [&](std::size_t len, std::string_view alphabet) {
    std::string s(len, ' ');
    for (char& c : s) c = alphabet[pick(alphabet.size())];
    return s;
  };
  constexpr std::string_view kNameChars =
      "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`"
      "abcdefghijklmnopqrstuvwxyz{|}~";
  RandomRecord r;
  AlignmentRecord& rec = r.rec;
  rec.query_name = text(1 + pick(80), kNameChars);
  r.target_name = text(1 + pick(40), kNameChars);
  r.seq = text(pick(300), pick(4) == 0 ? "ACGTNacgtnRY" : "ACGT");
  rec.reverse = pick(2) == 1;
  rec.exact = pick(3) == 0;
  switch (pick(4)) {
    case 0: rec.t_begin = pick(1000); break;
    case 1: rec.t_begin = (std::uint64_t{1} << 32) + pick(1u << 20); break;
    case 2: rec.t_begin = std::numeric_limits<std::size_t>::max() - 1; break;
    default: rec.t_begin = rng() >> pick(64); break;
  }
  switch (pick(5)) {
    case 0: rec.score = 0; break;
    case 1: rec.score = static_cast<int>(pick(10)); break;
    case 2: rec.score = 100 + static_cast<int>(pick(1'000'000)); break;
    case 3: rec.score = std::numeric_limits<int>::min(); break;
    default: rec.score = static_cast<int>(rng()); break;
  }
  rec.mismatches = pick(2) == 0 ? 0 : static_cast<int>(pick(100'000));
  rec.cigar.clear();
  for (std::uint64_t ops = pick(12); ops > 0; --ops)
    rec.cigar += std::to_string(1 + pick(500)) + "MIDS"[pick(4)];
  return r;
}

TEST(SamWriter, AppendMatchesOstreamOracle) {
  std::mt19937_64 rng(20'150'504);
  std::string all, expected;
  for (int i = 0; i < 5000; ++i) {
    const RandomRecord r = random_record(rng);
    const std::string want = oracle_line(r.rec, r.target_name, r.seq);
    ASSERT_EQ(sam_line(r.rec, r.target_name, r.seq), want) << "record " << i;
    // Appending keeps what the buffer already holds.
    append_sam_record(all, r.rec, r.target_name, r.seq);
    expected += want;
  }
  EXPECT_EQ(all, expected);
}

// ---------------------------------------------------------------------------
// SamStreamSink: formatting on the rank threads
// ---------------------------------------------------------------------------

/// One batch's records, already split by emitting rank. Every record of a
/// rank's read is emitted consecutively, as the aligner does.
struct RankRecords {
  std::vector<SeqRecord> reads;
  std::vector<std::vector<AlignmentRecord>> recs;  ///< per read
};

std::vector<SamTarget> test_catalog() {
  return {{"chr1", 1'000'000}, {"contig_2", 5'000}, {"c3", 7}};
}

std::vector<RankRecords> random_batch(std::mt19937_64& rng, int nranks,
                                      std::size_t ntargets,
                                      std::size_t max_reads = 40) {
  std::vector<RankRecords> out(static_cast<std::size_t>(nranks));
  for (RankRecords& rr : out) {
    const std::size_t nreads = rng() % max_reads;
    for (std::size_t i = 0; i < nreads; ++i) {
      RandomRecord first = random_record(rng);
      const SeqRecord read{first.rec.query_name, first.seq, ""};
      std::vector<AlignmentRecord> recs;
      for (std::uint64_t a = rng() % 4; a > 0; --a) {
        AlignmentRecord rec = random_record(rng).rec;
        rec.query_name = read.name;
        rec.target_id = static_cast<std::uint32_t>(rng() % ntargets);
        recs.push_back(std::move(rec));
      }
      rr.reads.push_back(read);
      rr.recs.push_back(std::move(recs));
    }
  }
  return out;
}

void emit_rank(SamStreamSink& sink, int rank, const RankRecords& rr) {
  for (std::size_t i = 0; i < rr.reads.size(); ++i)
    for (AlignmentRecord rec : rr.recs[i])
      sink.emit(rank, rr.reads[i], std::move(rec));
}

std::size_t count_records(const std::vector<RankRecords>& batch) {
  std::size_t n = 0;
  for (const RankRecords& rr : batch)
    for (const auto& recs : rr.recs) n += recs.size();
  return n;
}

TEST(SamStreamSink, ConcurrentRankEmitEqualsSerial) {
  const std::vector<SamTarget> catalog = test_catalog();
  SamProgram pg;
  pg.command_line = "test --ranks N";
  for (const int nranks : {1, 2, 4, 8}) {
    SCOPED_TRACE(nranks);
    std::mt19937_64 rng(static_cast<std::uint64_t>(nranks));
    // The second batch fills several of a rank buffer's chunks.
    const std::vector<std::vector<RankRecords>> batches{
        random_batch(rng, nranks, catalog.size()),
        random_batch(rng, nranks, catalog.size(), 800)};

    // Reference: header once, then each batch's records in rank order.
    std::ostringstream header;
    write_sam_header(header, catalog, pg);
    std::string expected = header.str();
    for (const auto& batch : batches)
      for (const RankRecords& rr : batch)
        for (std::size_t i = 0; i < rr.reads.size(); ++i)
          for (const AlignmentRecord& rec : rr.recs[i])
            expected += oracle_line(rec, catalog[rec.target_id].name,
                                    rr.reads[i].seq);

    std::ostringstream serial_os, concurrent_os;
    SamStreamSink serial(serial_os, catalog, nranks, pg);
    SamStreamSink concurrent(concurrent_os, catalog, nranks, pg);
    std::size_t records = 0;
    for (const auto& batch : batches) {
      for (int r = 0; r < nranks; ++r)
        emit_rank(serial, r, batch[static_cast<std::size_t>(r)]);
      serial.batch_end();

      std::latch start(nranks);
      std::vector<std::thread> threads;
      for (int r = 0; r < nranks; ++r)
        threads.emplace_back([&, r] {
          start.arrive_and_wait();
          emit_rank(concurrent, r, batch[static_cast<std::size_t>(r)]);
        });
      for (std::thread& t : threads) t.join();
      concurrent.batch_end();

      records += count_records(batch);
      EXPECT_EQ(concurrent.records_written(), records);
    }
    EXPECT_EQ(serial_os.str(), expected);
    EXPECT_EQ(concurrent_os.str(), expected);
    EXPECT_EQ(serial.records_written(), records);
  }
}

TEST(SamStreamSink, OneSinkAcrossBatchesDrainedAfterEach) {
  // The daemon's pattern: one sink per connection, its stream emptied after
  // every batch into a reply. The replies concatenate to the one-shot bytes
  // and only the first carries the header.
  const std::vector<SamTarget> catalog = test_catalog();
  constexpr int kRanks = 4;
  std::mt19937_64 rng(99);
  std::ostringstream one_shot_os, conn_os;
  SamStreamSink one_shot(one_shot_os, catalog, kRanks);
  SamStreamSink conn(conn_os, catalog, kRanks);
  std::string replies;
  for (int b = 0; b < 5; ++b) {
    const std::vector<RankRecords> batch =
        random_batch(rng, kRanks, catalog.size());
    std::vector<std::thread> threads;
    for (int r = 0; r < kRanks; ++r) {
      emit_rank(one_shot, r, batch[static_cast<std::size_t>(r)]);
      threads.emplace_back([&, r] {
        emit_rank(conn, r, batch[static_cast<std::size_t>(r)]);
      });
    }
    for (std::thread& t : threads) t.join();
    one_shot.batch_end();
    conn.batch_end();
    const std::string reply = conn_os.str();
    conn_os.str("");
    EXPECT_EQ(reply.starts_with("@HD\t"), b == 0) << "batch " << b;
    replies += reply;
  }
  EXPECT_EQ(replies, one_shot_os.str());
  EXPECT_EQ(conn.records_written(), one_shot.records_written());
}

}  // namespace
