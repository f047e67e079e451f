#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include "seq/fasta.hpp"
#include "seq/fastq.hpp"

namespace {

using namespace mera::seq;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mera_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

using FastaTest = TempDir;
using FastqTest = TempDir;

std::vector<SeqRecord> sample_records(int n, std::uint64_t seed,
                                      bool with_qual) {
  std::mt19937_64 rng(seed);
  std::vector<SeqRecord> recs;
  for (int i = 0; i < n; ++i) {
    SeqRecord r;
    r.name = "seq" + std::to_string(i);
    r.seq.resize(20 + rng() % 200);
    for (auto& c : r.seq) c = "ACGT"[rng() & 3u];
    if (with_qual) r.qual.assign(r.seq.size(), 'I');
    recs.push_back(std::move(r));
  }
  return recs;
}

TEST_F(FastaTest, WriteReadRoundTrip) {
  const auto recs = sample_records(25, 1, false);
  write_fasta(path("a.fa"), recs);
  const auto back = read_fasta(path("a.fa"));
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].name, recs[i].name);
    EXPECT_EQ(back[i].seq, recs[i].seq);
  }
}

TEST_F(FastaTest, LineWrappingIsTransparent) {
  const auto recs = sample_records(5, 2, false);
  for (std::size_t width : {1u, 7u, 80u, 10000u}) {
    write_fasta(path("w.fa"), recs, width);
    const auto back = read_fasta(path("w.fa"));
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
      EXPECT_EQ(back[i].seq, recs[i].seq) << "width=" << width;
  }
}

TEST_F(FastaTest, ParseHandlesDescriptionsAndCRLF) {
  const std::string text = ">chr1 description here\r\nACGT\r\nTTAA\r\n>chr2\nGG\n";
  const auto recs = parse_fasta(text);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "chr1");
  EXPECT_EQ(recs[0].seq, "ACGTTTAA");
  EXPECT_EQ(recs[1].name, "chr2");
  EXPECT_EQ(recs[1].seq, "GG");
}

TEST_F(FastaTest, PartitionedReadCoversExactlyOnce) {
  const auto recs = sample_records(103, 3, false);
  write_fasta(path("p.fa"), recs);
  for (int nranks : {1, 2, 3, 7, 16}) {
    std::vector<SeqRecord> merged;
    for (int r = 0; r < nranks; ++r) {
      const auto part = read_fasta_partition(path("p.fa"), r, nranks);
      merged.insert(merged.end(), part.begin(), part.end());
    }
    ASSERT_EQ(merged.size(), recs.size()) << "nranks=" << nranks;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(merged[i].name, recs[i].name);
      EXPECT_EQ(merged[i].seq, recs[i].seq);
    }
  }
}

TEST_F(FastaTest, EmptyFileYieldsNoRecords) {
  write_fasta(path("e.fa"), {});
  EXPECT_TRUE(read_fasta(path("e.fa")).empty());
}

TEST_F(FastaTest, MissingFileThrows) {
  EXPECT_THROW(read_fasta(path("nope.fa")), std::runtime_error);
}

TEST_F(FastqTest, WriteReadRoundTrip) {
  const auto recs = sample_records(30, 4, true);
  write_fastq(path("a.fq"), recs);
  const auto back = read_fastq(path("a.fq"));
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].name, recs[i].name);
    EXPECT_EQ(back[i].seq, recs[i].seq);
    EXPECT_EQ(back[i].qual, recs[i].qual);
  }
}

TEST_F(FastqTest, QualityLengthMismatchThrows) {
  const std::string bad = "@r1\nACGT\n+\nII\n";
  EXPECT_THROW(parse_fastq(bad), std::runtime_error);
}

TEST_F(FastqTest, NamesAreTruncatedAtWhitespace) {
  const std::string text = "@read1 extra metadata\nACGT\n+\nIIII\n";
  const auto recs = parse_fastq(text);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "read1");
}

TEST_F(FastqTest, NextRecordHeuristicSkipsMidRecordStarts) {
  // Position the scan start inside a record body; the scanner must find the
  // *next* record header, not the '+' or quality lines.
  const std::string text = "@r1\nACGT\n+\nIIII\n@r2\nGGGG\n+\nIIII\n";
  const std::size_t r2 = text.find("@r2");
  EXPECT_EQ(fastq_next_record(text, 1), r2);
  EXPECT_EQ(fastq_next_record(text, 0), 0u);
  EXPECT_EQ(fastq_next_record(text, r2), r2);
  EXPECT_EQ(fastq_next_record(text, r2 + 1), text.size());
}

}  // namespace
