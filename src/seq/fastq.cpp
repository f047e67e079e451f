#include "seq/fastq.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mera::seq {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

/// [begin, end) of the line starting at `pos` (end excludes '\n').
std::pair<std::size_t, std::size_t> line_at(std::string_view text,
                                            std::size_t pos) {
  std::size_t e = text.find('\n', pos);
  if (e == std::string_view::npos) e = text.size();
  std::size_t end = e;
  while (end > pos && text[end - 1] == '\r') --end;
  return {pos, end};
}

std::size_t line_after(std::string_view text, std::size_t pos) {
  const std::size_t e = text.find('\n', pos);
  return e == std::string_view::npos ? text.size() : e + 1;
}

bool is_record_start(std::string_view text, std::size_t pos) {
  if (pos >= text.size() || text[pos] != '@') return false;
  const std::size_t plus_line = line_after(text, line_after(text, pos));
  return plus_line < text.size() && text[plus_line] == '+';
}

}  // namespace

std::string qname_defect(std::string_view name) {
  if (name.empty()) return "empty name";
  for (std::size_t i = 0; i < name.size(); ++i) {
    const auto c = static_cast<unsigned char>(name[i]);
    if (c < '!' || c == 0x7F) {
      char byte[8];
      std::snprintf(byte, sizeof byte, "0x%02X", c);
      return std::string("name byte ") + byte + " at offset " +
             std::to_string(i) + " cannot be in a SAM QNAME";
    }
  }
  return {};
}

std::vector<SeqRecord> parse_fastq(std::string_view text) {
  std::vector<SeqRecord> out;
  std::size_t pos = fastq_next_record(text, 0);
  while (pos < text.size()) {
    auto [h0, h1] = line_at(text, pos);
    SeqRecord rec;
    rec.name = std::string(text.substr(h0 + 1, h1 - h0 - 1));
    if (auto sp = rec.name.find_first_of(" \t"); sp != std::string::npos)
      rec.name.resize(sp);
    if (const std::string why = qname_defect(rec.name); !why.empty())
      throw std::runtime_error("FASTQ parse error: record " +
                               std::to_string(out.size()) + ": " + why);
    std::size_t p = line_after(text, pos);
    auto [s0, s1] = line_at(text, p);
    rec.seq = std::string(text.substr(s0, s1 - s0));
    p = line_after(text, p);  // '+' line
    p = line_after(text, p);
    auto [q0, q1] = line_at(text, p);
    rec.qual = std::string(text.substr(q0, q1 - q0));
    if (rec.qual.size() != rec.seq.size())
      throw std::runtime_error("FASTQ parse error: quality length mismatch at record '" +
                               rec.name + "'");
    out.push_back(std::move(rec));
    pos = line_after(text, p);
  }
  return out;
}

std::size_t fastq_next_record(std::string_view text, std::size_t pos) {
  if (pos == 0 && is_record_start(text, 0)) return 0;
  std::size_t scan = pos == 0 ? 0 : pos - 1;
  for (;;) {
    const std::size_t nl = text.find('\n', scan);
    if (nl == std::string_view::npos || nl + 1 >= text.size())
      return text.size();
    if (nl + 1 >= pos && is_record_start(text, nl + 1)) return nl + 1;
    scan = nl + 1;
  }
}

std::vector<SeqRecord> read_fastq(const std::string& path) {
  return parse_fastq(slurp(path));
}

void write_fastq(const std::string& path, const std::vector<SeqRecord>& recs) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  for (const auto& r : recs) {
    out << '@' << r.name << '\n' << r.seq << "\n+\n";
    if (r.qual.size() == r.seq.size())
      out << r.qual << '\n';
    else
      out << std::string(r.seq.size(), 'I') << '\n';
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace mera::seq
