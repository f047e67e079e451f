#include "core/sam_writer.hpp"

#include <ostream>

#include "seq/dna.hpp"

namespace mera::core {

std::vector<SamTarget> sam_targets(const TargetStore& targets) {
  std::vector<SamTarget> out;
  out.reserve(targets.num_targets());
  for (std::uint32_t gid = 0; gid < targets.num_targets(); ++gid) {
    const Target& t = targets.target_unsync(gid);
    out.push_back(SamTarget{t.name, t.seq.size()});
  }
  return out;
}

void write_sam_header(std::ostream& os, const std::vector<SamTarget>& targets,
                      const SamProgram& pg) {
  os << "@HD\tVN:1.6\tSO:unknown\n";
  for (const SamTarget& t : targets)
    os << "@SQ\tSN:" << t.name << "\tLN:" << t.length << '\n';
  os << "@PG\tID:" << pg.id << "\tPN:" << pg.name << "\tVN:" << pg.version;
  if (!pg.command_line.empty()) os << "\tCL:" << pg.command_line;
  os << '\n';
}

void write_sam_header(std::ostream& os, const TargetStore& targets,
                      const SamProgram& pg) {
  write_sam_header(os, sam_targets(targets), pg);
}

void write_sam_record(std::ostream& os, const AlignmentRecord& rec,
                      const std::string& target_name,
                      const std::string& query_seq) {
  const unsigned flag = rec.reverse ? 0x10u : 0u;
  // SAM stores the sequence as aligned: reverse-complement for 0x10.
  const std::string seq =
      rec.reverse ? seq::reverse_complement(query_seq) : query_seq;
  os << rec.query_name << '\t' << flag << '\t' << target_name << '\t'
     << rec.t_begin + 1 << '\t' << (rec.exact ? 60 : 30) << '\t' << rec.cigar
     << '\t' << "*\t0\t0\t" << seq << "\t*\tAS:i:" << rec.score
     << "\tNM:i:" << rec.mismatches << '\n';
}

void write_sam_record(std::ostream& os, const AlignmentRecord& rec,
                      const TargetStore& targets,
                      const std::string& query_seq) {
  write_sam_record(os, rec, targets.target_unsync(rec.target_id).name,
                   query_seq);
}

}  // namespace mera::core
