// Minimal SAM output for alignment records.
//
// Two layers of reference description are accepted: a TargetStore (the
// single-index case — names and lengths are read straight from the store) or
// a flat SamTarget catalog (anything that can enumerate name+length per
// global target id, e.g. shard::ShardedReference's merged view). Both produce
// byte-identical headers for the same target sequence set.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/alignment.hpp"
#include "core/target_store.hpp"

namespace mera::core {

/// One @SQ header entry: everything SAM needs to know about a target.
struct SamTarget {
  std::string name;
  std::size_t length = 0;
};

/// The @PG header line (program name / version / command line). The
/// command_line is only known to executables, so it defaults to empty and the
/// CL field is omitted; library callers keep their historical header bytes.
struct SamProgram {
  std::string id = "merAligner";
  std::string name = "merAligner";
  std::string version = "1.0";
  std::string command_line;  ///< empty = omit the CL field
};

/// Flatten a TargetStore into a SamTarget catalog (global target-id order).
[[nodiscard]] std::vector<SamTarget> sam_targets(const TargetStore& targets);

/// Write @HD/@SQ/@PG headers for every target in the catalog.
void write_sam_header(std::ostream& os, const std::vector<SamTarget>& targets,
                      const SamProgram& pg = {});
void write_sam_header(std::ostream& os, const TargetStore& targets,
                      const SamProgram& pg = {});

/// Append one SAM line (newline included) to `out`. `query_seq` is the read
/// in its original (forward) orientation: SAM stores the sequence as aligned,
/// so a reverse record (flag 0x10) gets its reverse complement, written
/// straight into `out`. `target_name` is the name of the record's target.
void append_sam_record(std::string& out, const AlignmentRecord& rec,
                       std::string_view target_name,
                       std::string_view query_seq);

}  // namespace mera::core
