// The aligner's output record: one located query-to-target local alignment.
#pragma once

#include <cstdint>
#include <string>

namespace mera::core {

struct AlignmentRecord {
  std::string query_name;
  std::uint32_t target_id = 0;   ///< global target id (TargetStore)
  bool reverse = false;          ///< query aligned as its reverse complement
  int score = 0;
  // Half-open spans; query coordinates refer to the orientation aligned
  // (i.e. the reverse-complemented read when reverse == true).
  std::size_t q_begin = 0, q_end = 0;
  std::size_t t_begin = 0, t_end = 0;  ///< full-target coordinates
  std::string cigar;
  int mismatches = 0;
  bool exact = false;  ///< produced by the Lemma-1 memcmp fast path

  friend bool operator==(const AlignmentRecord&,
                         const AlignmentRecord&) = default;
};

}  // namespace mera::core
