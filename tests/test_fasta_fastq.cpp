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

TEST_F(FastqTest, NamesThatCannotBeASamQnameAreRejected) {
  const std::string good = "@r0\nACGT\n+\nIIII\n";
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& what) {
    try {
      (void)parse_fastq(text);
      ADD_FAILURE() << "accepted; expected an error naming " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  // A bare '@' header, and one whitespace cuts down to nothing.
  expect_rejected(good + "@\nACGT\n+\nIIII\n", "record 1: empty name");
  expect_rejected(good + good + "@ desc\nACGT\n+\nIIII\n",
                  "record 2: empty name");
  // Control bytes would break SAM's column and line framing.
  expect_rejected("@a\x01" "b\nACGT\n+\nIIII\n",
                  "record 0: name byte 0x01 at offset 1");
  expect_rejected(good + "@ab\rc\nACGT\n+\nIIII\n",
                  "record 1: name byte 0x0D at offset 2");
  expect_rejected(good + "@abc\x7F\nACGT\n+\nIIII\n", "0x7F at offset 3");
  std::string nul = "@a";
  nul += '\0';
  nul += "b\nACGT\n+\nIIII\n";
  expect_rejected(nul, "record 0: name byte 0x00 at offset 1");

  // Every byte from '!' to '~' is a QNAME byte, and a trailing CR is part of
  // the line ending, not the name.
  std::string printable;
  for (char c = '!'; c <= '~'; ++c) printable += c;
  const auto recs =
      parse_fastq("@" + printable + "\nACGT\n+\nIIII\n@r1\r\nAC\n+\nII\n");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, printable);
  EXPECT_EQ(recs[1].name, "r1");
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
