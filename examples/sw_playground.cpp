// Alignment-kernel playground: align two sequences from the command line and
// print the full local alignment — reference DP and the batch engine's traced
// SIMD sweep side by side. Handy for exploring scoring schemes. Exits 1 when
// the traced sweep's alignment differs from the reference DP's, so it
// doubles as a smoke test of the kernels' equivalence contract.
//
// Usage: sw_playground [query target [match mismatch gap_open gap_extend]]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"

namespace {

void print_alignment(const std::string& q, const std::string& t,
                     const mera::align::LocalAlignment& aln) {
  using mera::align::CigarOp;
  std::string top, mid, bot;
  std::size_t qi = aln.q_begin, ti = aln.t_begin;
  for (const auto& e : aln.cigar.elems()) {
    switch (e.op) {
      case CigarOp::kSoftClip:
        break;
      case CigarOp::kMatch:
        for (std::uint32_t i = 0; i < e.len; ++i, ++qi, ++ti) {
          top += q[qi];
          bot += t[ti];
          mid += q[qi] == t[ti] ? '|' : 'x';
        }
        break;
      case CigarOp::kInsert:
        for (std::uint32_t i = 0; i < e.len; ++i, ++qi) {
          top += q[qi];
          bot += '-';
          mid += ' ';
        }
        break;
      case CigarOp::kDelete:
        for (std::uint32_t i = 0; i < e.len; ++i, ++ti) {
          top += '-';
          bot += t[ti];
          mid += ' ';
        }
        break;
    }
  }
  std::printf("  query  %4zu  %s\n", aln.q_begin, top.c_str());
  std::printf("               %s\n", mid.c_str());
  std::printf("  target %4zu  %s\n", aln.t_begin, bot.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mera::align;
  std::string q = "GGGACGTACGTTACGTACGTCCC";
  std::string t = "TTTTACGTACGTACGTACGTTTTT";
  Scoring sc;
  if (argc >= 3) {
    q = argv[1];
    t = argv[2];
  }
  if (argc >= 7) {
    sc.match = std::atoi(argv[3]);
    sc.mismatch = std::atoi(argv[4]);
    sc.gap_open = std::atoi(argv[5]);
    sc.gap_extend = std::atoi(argv[6]);
  }

  std::printf("scoring: match=%+d mismatch=%+d gap_open=%d gap_extend=%d\n\n",
              sc.match, sc.mismatch, sc.gap_open, sc.gap_extend);

  const auto aln = smith_waterman(q, t, sc);
  std::printf("reference full-DP:  score=%d  cigar=%s  mismatches=%d\n",
              aln.score, aln.cigar.to_string().c_str(), aln.mismatches);
  print_alignment(q, t, aln);

  const auto qc = dna_codes(q);
  const auto tc = dna_codes(t);
  BatchSwScorer scorer(std::span<const std::uint8_t>(qc), sc);
  scorer.add(std::span<const std::uint8_t>(tc));
  const auto traced = scorer.flush().front();
  std::printf("\ntraced sweep:       score=%d  cigar=%s  mismatches=%d"
              "  (%s)\n",
              traced.score, traced.cigar.to_string().c_str(),
              traced.mismatches, isa_name(scorer.isa()));

  if (traced != aln) {
    std::printf("\nMISMATCH: the traced alignment differs from the reference "
                "DP.\n");
    return 1;
  }
  std::printf("\nthe traced sweep agrees with the reference DP.\n");
  return 0;
}
