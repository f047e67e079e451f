// FASTQ reader/writer.
//
// The paper notes FASTQ "cannot be read in parallel in a scalable way due to
// its text-based nature" and converts to SeqDB (see seqdb.hpp), which the
// parallel read path partitions. FASTQ is parsed whole, one file at a time.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "seq/fasta.hpp"  // SeqRecord

namespace mera::seq {

/// Throws std::runtime_error naming the record (its index and the offending
/// byte) when a record's name cannot be a SAM QNAME (see qname_defect).
[[nodiscard]] std::vector<SeqRecord> parse_fastq(std::string_view text);

/// Why `name` cannot be a SAM QNAME, or an empty string when it can. A read
/// name becomes the first column of each of its SAM lines, so an empty name
/// or any byte below '!' or equal to 0x7F (whitespace and control bytes such
/// as tab, newline and NUL) would break the SAM's column and line framing.
/// Both untrusted read edges, parse_fastq and SeqDBReader, reject such names.
[[nodiscard]] std::string qname_defect(std::string_view name);

[[nodiscard]] std::vector<SeqRecord> read_fastq(const std::string& path);

void write_fastq(const std::string& path, const std::vector<SeqRecord>& recs);

/// Offset of the first FASTQ record header at or after `pos` (heuristic:
/// line starts with '@' and the line after next starts with '+').
[[nodiscard]] std::size_t fastq_next_record(std::string_view text,
                                            std::size_t pos);

}  // namespace mera::seq
