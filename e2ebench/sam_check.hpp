// Structural SAM check and ground-truth scoring of the system's output.
//
// Record counts are NOT compared exactly: which hits survive max-hits
// truncation depends on index bucket order, which depends on thread arrival,
// so identical runs on repeat-rich inputs emit slightly different record
// sets. The check is structural instead — one header per stream or
// connection, @SQ lines matching the reference, 11+ fields per record, RNAME
// in the catalog, POS inside the contig, CIGAR query length equal to SEQ
// length, QNAME among the reads sent — plus two tallies that score quality:
// distinct QNAMEs (aligned reads) and best-AS records at the true locus.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "seq/fasta.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace e2e {

/// The reference as SAM must describe it, plus each contig's genome interval.
struct SamCatalog {
  struct Entry {
    std::string name;
    std::size_t length = 0;
    mera::seq::ContigTruth truth;
  };
  std::vector<Entry> targets;  ///< @SQ order (global target id order)
  std::unordered_map<std::string_view, std::size_t> by_name;

  explicit SamCatalog(const std::vector<mera::seq::SeqRecord>& contigs);
  SamCatalog(const SamCatalog&) = delete;  // by_name views into targets
  SamCatalog& operator=(const SamCatalog&) = delete;
};

/// Names of the reads sent, with the truth their names encode. Views into
/// `reads`, which must outlive the set.
struct ReadSet {
  std::unordered_map<std::string_view, mera::seq::ReadTruth> by_name;
  std::size_t non_junk = 0;

  explicit ReadSet(std::span<const mera::seq::SeqRecord> reads);
};

struct SamTally {
  std::size_t records = 0;
  std::size_t aligned_reads = 0;  ///< distinct QNAMEs
  /// Non-junk reads with a best-AS record within kTruthSlack bases of the
  /// true locus on the true strand. Any record tied for the best AS counts:
  /// the order of tied records follows thread arrival, so a first-on-ties
  /// rule would not repeat from run to run.
  std::size_t truth_hits = 0;

  SamTally& operator+=(const SamTally& o) noexcept;
};

inline constexpr std::size_t kTruthSlack = 3;

struct SamCheck {
  bool ok = true;
  std::string error;  ///< first problem found, with its line number
  SamTally tally;
};

/// Check one stream's (or one reply's) SAM text. With `expect_header` the
/// text must open with exactly one @HD/@SQ.../@PG block matching `catalog`;
/// without it, any header line is an error (a duplicated header).
[[nodiscard]] SamCheck check_sam(std::string_view text,
                                 const SamCatalog& catalog,
                                 const ReadSet& sent, bool expect_header);

}  // namespace e2e
