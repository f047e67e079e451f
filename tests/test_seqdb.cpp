#include "seq/seqdb.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

#include "seq/fastq.hpp"

namespace {

using namespace mera::seq;

class SeqDBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mera_seqdb_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

std::vector<SeqRecord> sample_reads(int n, std::uint64_t seed,
                                    double n_rate = 0.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0, 1);
  std::vector<SeqRecord> recs;
  for (int i = 0; i < n; ++i) {
    SeqRecord r;
    r.name = "read/" + std::to_string(i);
    r.seq.resize(50 + rng() % 150);
    for (auto& c : r.seq)
      c = unit(rng) < n_rate ? 'N' : "ACGT"[rng() & 3u];
    r.qual.resize(r.seq.size());
    for (auto& q : r.qual) q = static_cast<char>('!' + 1 + rng() % 40);
    recs.push_back(std::move(r));
  }
  return recs;
}

TEST_F(SeqDBTest, RoundTripWithoutQuality) {
  const auto recs = sample_reads(40, 1);
  write_seqdb(path("a.sdb"), recs, /*store_quality=*/false);
  SeqDBReader db(path("a.sdb"));
  ASSERT_EQ(db.size(), recs.size());
  EXPECT_FALSE(db.has_quality());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto rec = db.read(i);
    EXPECT_EQ(rec.name, recs[i].name);
    EXPECT_EQ(rec.seq, recs[i].seq);
  }
}

TEST_F(SeqDBTest, RoundTripWithQualityIsLossless) {
  const auto recs = sample_reads(25, 2);
  write_seqdb(path("q.sdb"), recs, /*store_quality=*/true);
  SeqDBReader db(path("q.sdb"));
  ASSERT_TRUE(db.has_quality());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto rec = db.read(i);
    EXPECT_EQ(rec.qual, recs[i].qual);
    EXPECT_EQ(rec.seq, recs[i].seq);
  }
}

TEST_F(SeqDBTest, NBasesSurviveRoundTrip) {
  const auto recs = sample_reads(30, 3, /*n_rate=*/0.05);
  write_seqdb(path("n.sdb"), recs, true);
  SeqDBReader db(path("n.sdb"));
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(db.read(i).seq, recs[i].seq) << "record " << i;
}

TEST_F(SeqDBTest, PackedReadExposesNPositions) {
  std::vector<SeqRecord> recs{{"r", "ACNNGT", "IIIIII"}};
  write_seqdb(path("p.sdb"), recs, false);
  SeqDBReader db(path("p.sdb"));
  const auto pr = db.read_packed(0);
  EXPECT_EQ(pr.seq.to_string(), "ACAAGT");  // Ns packed as A
  ASSERT_EQ(pr.n_pos.size(), 2u);
  EXPECT_EQ(pr.n_pos[0], 2u);
  EXPECT_EQ(pr.n_pos[1], 3u);
}

TEST_F(SeqDBTest, RandomAccessIsOrderIndependent) {
  const auto recs = sample_reads(50, 4);
  write_seqdb(path("r.sdb"), recs, false);
  SeqDBReader db(path("r.sdb"));
  // Read backwards, then spot-check forward.
  for (std::size_t i = recs.size(); i-- > 0;)
    EXPECT_EQ(db.read(i).name, recs[i].name);
  EXPECT_EQ(db.read(7).seq, recs[7].seq);
}

TEST_F(SeqDBTest, PartitionsAreBalancedAndComplete) {
  const auto recs = sample_reads(101, 5);
  write_seqdb(path("b.sdb"), recs, false);
  SeqDBReader db(path("b.sdb"));
  for (int nranks : {1, 2, 7, 13, 101, 200}) {
    std::size_t covered = 0;
    std::size_t max_part = 0, min_part = recs.size();
    for (int r = 0; r < nranks; ++r) {
      const auto [lo, hi] = db.partition(r, nranks);
      ASSERT_LE(lo, hi);
      covered += hi - lo;
      max_part = std::max(max_part, hi - lo);
      min_part = std::min(min_part, hi - lo);
      if (r > 0) {
        EXPECT_EQ(db.partition(r - 1, nranks).second, lo) << "gap/overlap";
      }
    }
    EXPECT_EQ(covered, recs.size()) << "nranks=" << nranks;
    EXPECT_LE(max_part - min_part, 1u) << "nranks=" << nranks;
  }
}

TEST_F(SeqDBTest, FastqConversionPreservesEverything) {
  const auto recs = sample_reads(64, 6);
  // Avoid '@'/'+' leading quality chars that stress the FASTQ heuristic.
  auto safe = recs;
  for (auto& r : safe)
    for (auto& q : r.qual)
      if (q == '@' || q == '+') q = 'I';
  write_fastq(path("in.fq"), safe);
  fastq_to_seqdb(path("in.fq"), path("out.sdb"));
  SeqDBReader db(path("out.sdb"));
  ASSERT_EQ(db.size(), safe.size());
  for (std::size_t i = 0; i < safe.size(); ++i) {
    const auto rec = db.read(i);
    EXPECT_EQ(rec.name, safe[i].name);
    EXPECT_EQ(rec.seq, safe[i].seq);
    EXPECT_EQ(rec.qual, safe[i].qual);
  }
}

TEST_F(SeqDBTest, CompressionBeatsFastqSize) {
  // The paper quotes SeqDB at ~40-50% of FASTQ; verify we are in that range
  // for quality-less storage and below 100% with qualities.
  auto recs = sample_reads(200, 7);
  for (auto& r : recs) r.seq.resize(101, 'A'), r.qual.resize(101, 'I');
  write_fastq(path("c.fq"), recs);
  write_seqdb(path("c_noq.sdb"), recs, false);
  write_seqdb(path("c_q.sdb"), recs, true);
  const auto fq = std::filesystem::file_size(path("c.fq"));
  const auto noq = std::filesystem::file_size(path("c_noq.sdb"));
  const auto q = std::filesystem::file_size(path("c_q.sdb"));
  EXPECT_LT(noq, fq / 2);
  EXPECT_LT(q, fq);
}

TEST_F(SeqDBTest, BadMagicRejected) {
  std::ofstream out(path("bad.sdb"), std::ios::binary);
  out << "NOTASEQDBFILE.................";
  out.close();
  EXPECT_THROW(SeqDBReader{path("bad.sdb")}, std::runtime_error);
}

TEST_F(SeqDBTest, OutOfRangeIndexThrows) {
  write_seqdb(path("s.sdb"), sample_reads(3, 8), false);
  SeqDBReader db(path("s.sdb"));
  EXPECT_THROW((void)db.read_packed(3), std::out_of_range);
}

TEST_F(SeqDBTest, QualityLengthMismatchRejectedAtWrite) {
  SeqDBWriter w(path("m.sdb"), true);
  EXPECT_THROW(w.add({"r", "ACGT", "II"}), std::invalid_argument);
}

// --- malformed images: a named error, never UB or a giant allocation -------

/// One valid record image: "r" / "ACGN" without qualities. Layout: 32-byte
/// header, name_len @32, name @34, seq_len @35, one packed word @39,
/// n_count @47, N position @51 (= 3), record index @55, 63 bytes in all.
std::string one_record_image(const std::string& dir) {
  const std::string p = dir + "/one.sdb";
  write_seqdb(p, {{"r", "ACGN", ""}}, /*store_quality=*/false);
  std::ifstream in(p, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 63u);
  return bytes;
}

template <typename T>
void patch(std::string& image, std::size_t at, T value) {
  std::memcpy(image.data() + at, &value, sizeof(T));
}

/// The image must be rejected with a std::runtime_error naming `field`.
void expect_rejected(std::string image, const std::string& field) {
  try {
    auto db = SeqDBReader::from_bytes(std::move(image));
    (void)db.read_all();
    ADD_FAILURE() << "malformed image accepted; expected an error naming "
                  << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST_F(SeqDBTest, InMemoryImageDecodesLikeTheFile) {
  const auto recs = sample_reads(20, 9, /*n_rate=*/0.05);
  write_seqdb(path("m.sdb"), recs, /*store_quality=*/true);
  std::ifstream in(path("m.sdb"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto db = SeqDBReader::from_bytes(std::move(bytes));
  const auto got = db.read_all();
  ASSERT_EQ(got.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(got[i].name, recs[i].name);
    EXPECT_EQ(got[i].seq, recs[i].seq);
    EXPECT_EQ(got[i].qual, recs[i].qual);
  }
}

TEST_F(SeqDBTest, NPositionPastTheReadIsRejected) {
  std::string image = one_record_image(dir_.string());
  patch<std::uint32_t>(image, 51, 100);  // N at 100 in a 4-base read
  expect_rejected(image, "N position");
  // The file path runs the same checks.
  std::ofstream(path("npos.sdb"), std::ios::binary) << image;
  SeqDBReader db(path("npos.sdb"));
  EXPECT_THROW((void)db.read(0), std::runtime_error);
}

TEST_F(SeqDBTest, RecordCountBeyondTheImageIsRejected) {
  // A bare 32-byte header claiming 2^31 records: rejected before the
  // 16 GiB offset table is allocated.
  std::string image = one_record_image(dir_.string()).substr(0, 32);
  patch<std::uint64_t>(image, 16, std::uint64_t{1} << 31);
  patch<std::uint64_t>(image, 24, 32);
  expect_rejected(image, "nrecords");

  std::string past_end = one_record_image(dir_.string());
  patch<std::uint64_t>(past_end, 24, 1000);  // index_offset past the end
  expect_rejected(past_end, "index_offset");

  std::string bad_offset = one_record_image(dir_.string());
  patch<std::uint64_t>(bad_offset, 55, 60);  // record inside the index
  expect_rejected(bad_offset, "record offset");

  expect_rejected(one_record_image(dir_.string()).substr(0, 20),
                  "truncated header");
}

TEST_F(SeqDBTest, SequenceLengthBeyondTheImageIsRejected) {
  // seq_len 0xFFFFFFF0 would need 1 GiB of packed words; the 8 bytes left
  // before the index reject it before any allocation.
  std::string image = one_record_image(dir_.string());
  patch<std::uint32_t>(image, 35, 0xFFFFFFF0u);
  expect_rejected(image, "seq_len");

  std::string name = one_record_image(dir_.string());
  patch<std::uint16_t>(name, 32, 0xFFFF);
  expect_rejected(name, "name_len");

  std::string ns = one_record_image(dir_.string());
  patch<std::uint32_t>(ns, 47, 0x40000000u);
  expect_rejected(ns, "n_count");
}

TEST_F(SeqDBTest, NamesThatCannotBeASamQnameAreRejected) {
  // The writer stores any name; the reader, an untrusted edge, refuses the
  // ones that would break the SAM's framing, naming the record and byte.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"", "record 1: empty name"},
      {"a\tb", "record 1: name byte 0x09 at offset 1"},
      {"ab\n", "record 1: name byte 0x0A at offset 2"},
      {std::string("a\0b", 3), "record 1: name byte 0x00 at offset 1"},
      {"read 2", "record 1: name byte 0x20 at offset 4"},
      {"x\x7F", "record 1: name byte 0x7F at offset 1"},
  };
  for (const auto& [name, what] : cases) {
    SCOPED_TRACE(what);
    write_seqdb(path("q.sdb"), {{"ok", "ACGT", ""}, {name, "ACGT", ""}},
                /*store_quality=*/false);
    std::ifstream in(path("q.sdb"), std::ios::binary);
    expect_rejected({std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()},
                    what);
    SeqDBReader db(path("q.sdb"));
    EXPECT_EQ(db.read(0).name, "ok");
    EXPECT_THROW((void)db.read_packed(1), std::runtime_error);
  }
}

TEST_F(SeqDBTest, EmptyDatabase) {
  write_seqdb(path("e.sdb"), {}, false);
  SeqDBReader db(path("e.sdb"));
  EXPECT_EQ(db.size(), 0u);
  const auto [lo, hi] = db.partition(0, 4);
  EXPECT_EQ(lo, hi);
}

}  // namespace
