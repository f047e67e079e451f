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

[[nodiscard]] std::vector<SeqRecord> parse_fastq(std::string_view text);

[[nodiscard]] std::vector<SeqRecord> read_fastq(const std::string& path);

void write_fastq(const std::string& path, const std::vector<SeqRecord>& recs);

/// Offset of the first FASTQ record header at or after `pos` (heuristic:
/// line starts with '@' and the line after next starts with '+').
[[nodiscard]] std::size_t fastq_next_record(std::string_view text,
                                            std::size_t pos);

}  // namespace mera::seq
