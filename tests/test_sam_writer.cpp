#include "core/sam_writer.hpp"

#include <gtest/gtest.h>

#include <sstream>

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
  const auto store = make_store({{"ctg", "ACGTACGTACGTACGTACGT", ""}});
  AlignmentRecord rec;
  rec.query_name = "read1";
  rec.target_id = 0;
  rec.reverse = false;
  rec.score = 20;
  rec.t_begin = 4;  // 0-based -> SAM POS 5
  rec.t_end = 14;
  rec.cigar = "10M";
  rec.mismatches = 1;
  std::ostringstream os;
  write_sam_record(os, rec, store, "ACGTACGTAC");
  const std::string line = os.str();
  EXPECT_NE(line.find("read1\t0\tctg\t5\t"), std::string::npos);
  EXPECT_NE(line.find("\t10M\t"), std::string::npos);
  EXPECT_NE(line.find("ACGTACGTAC"), std::string::npos);
  EXPECT_NE(line.find("AS:i:20"), std::string::npos);
  EXPECT_NE(line.find("NM:i:1"), std::string::npos);
}

TEST(SamWriter, ReverseRecordSetsFlagAndRevcompsSeq) {
  const auto store = make_store({{"ctg", std::string(60, 'G'), ""}});
  AlignmentRecord rec;
  rec.query_name = "r";
  rec.target_id = 0;
  rec.reverse = true;
  rec.t_begin = 0;
  rec.cigar = std::string("4M");
  std::ostringstream os;
  write_sam_record(os, rec, store, "AACG");
  const std::string line = os.str();
  EXPECT_NE(line.find("\t16\t"), std::string::npos);  // 0x10
  EXPECT_NE(line.find("CGTT"), std::string::npos);
  EXPECT_EQ(line.find("AACG\t"), std::string::npos);
}

TEST(SamWriter, ExactAlignmentsGetHigherMapq) {
  const auto store = make_store({{"ctg", std::string(60, 'T'), ""}});
  AlignmentRecord exact, inexact;
  exact.query_name = inexact.query_name = "r";
  exact.cigar = inexact.cigar = std::string("4M");
  exact.exact = true;
  inexact.exact = false;
  std::ostringstream a, b;
  write_sam_record(a, exact, store, "TTTT");
  write_sam_record(b, inexact, store, "TTTT");
  EXPECT_NE(a.str().find("\t60\t"), std::string::npos);
  EXPECT_NE(b.str().find("\t30\t"), std::string::npos);
}

}  // namespace
