// Alignment scoring parameters (affine gaps).
//
// The paper reports alignments "using a commonly employed scoring matrix";
// defaults below match the SSW library's DNA defaults (match +2, mismatch -2,
// gap open 3, gap extend 1; a length-L gap costs open + L*extend).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "seq/dna.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

struct Scoring {
  int match = 2;        ///< added per matching column
  int mismatch = -2;    ///< added per mismatching column
  int gap_open = 3;     ///< subtracted once when a gap opens
  int gap_extend = 1;   ///< subtracted per gap base (including the first)

  [[nodiscard]] int substitution(std::uint8_t a, std::uint8_t b) const noexcept {
    return a == b ? match : mismatch;
  }
};

/// ASCII DNA -> 2-bit code vector for the alignment kernels ('N' -> 'A').
[[nodiscard]] inline std::vector<std::uint8_t> dna_codes(std::string_view s) {
  std::vector<std::uint8_t> v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint8_t c = seq::encode_base(s[i]);
    v[i] = c == seq::kInvalidBase ? 0 : c;
  }
  return v;
}

[[nodiscard]] inline std::vector<std::uint8_t> dna_codes(
    const seq::PackedSeq& s, std::size_t pos, std::size_t len) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) v[i] = s.code_at(pos + i);
  return v;
}

[[nodiscard]] inline std::vector<std::uint8_t> dna_codes(const seq::PackedSeq& s) {
  return dna_codes(s, 0, s.size());
}

}  // namespace mera::align
