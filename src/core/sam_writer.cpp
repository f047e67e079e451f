#include "core/sam_writer.hpp"

#include <array>
#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>
#include <type_traits>

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

namespace {

/// seq::complement_base for every byte: A<->T, C<->G in either case
/// (upper-case out), anything else 'N'.
constexpr std::array<char, 256> kComplement = [] {
  std::array<char, 256> t{};
  for (std::size_t c = 0; c < t.size(); ++c)
    t[c] = seq::complement_base(static_cast<char>(c));
  return t;
}();

/// Characters of `Int`'s widest decimal form, sign included.
template <typename Int>
constexpr std::size_t kMaxDigits =
    std::numeric_limits<Int>::digits10 + 1 + std::is_signed_v<Int>;

/// Bytes of a line besides its four variable-length fields: the tabs, the
/// newline and the literal "*", "0", "AS:i:", "NM:i:" text (27 bytes), plus
/// every integer column at its widest (flag and MAPQ take 2).
constexpr std::size_t kFixedBytes = 27 + 2 + kMaxDigits<std::size_t> + 2 +
                                    2 * kMaxDigits<int>;

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

template <typename Int>
char* put_int(char* p, Int v) {
  return std::to_chars(p, p + kMaxDigits<Int>, v).ptr;
}

}  // namespace

void append_sam_record(std::string& out, const AlignmentRecord& rec,
                       std::string_view target_name,
                       std::string_view query_seq) {
  const std::size_t old = out.size();
  out.resize(old + kFixedBytes + rec.query_name.size() + target_name.size() +
             rec.cigar.size() + query_seq.size());
  char* p = out.data() + old;
  p = put(p, rec.query_name);
  p = put(p, rec.reverse ? "\t16\t" : "\t0\t");
  p = put(p, target_name);
  *p++ = '\t';
  p = put_int(p, rec.t_begin + 1);
  p = put(p, rec.exact ? "\t60\t" : "\t30\t");
  p = put(p, rec.cigar);
  p = put(p, "\t*\t0\t0\t");
  if (rec.reverse) {
    for (auto it = query_seq.rbegin(); it != query_seq.rend(); ++it)
      *p++ = kComplement[static_cast<unsigned char>(*it)];
  } else {
    p = put(p, query_seq);
  }
  p = put(p, "\t*\tAS:i:");
  p = put_int(p, rec.score);
  p = put(p, "\tNM:i:");
  p = put_int(p, rec.mismatches);
  *p++ = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

}  // namespace mera::core
