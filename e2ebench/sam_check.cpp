#include "sam_check.hpp"

#include <charconv>
#include <cstdint>

namespace e2e {

SamCatalog::SamCatalog(const std::vector<mera::seq::SeqRecord>& contigs) {
  targets.reserve(contigs.size());
  for (const auto& c : contigs)
    targets.push_back({c.name, c.seq.size(), mera::seq::parse_contig_truth(c.name)});
  for (std::size_t i = 0; i < targets.size(); ++i)
    by_name.emplace(targets[i].name, i);
}

ReadSet::ReadSet(std::span<const mera::seq::SeqRecord> reads) {
  by_name.reserve(reads.size());
  for (const auto& r : reads) {
    const auto truth = mera::seq::parse_read_truth(r.name);
    by_name.emplace(r.name, truth);
    if (!truth.junk) ++non_junk;
  }
}

SamTally& SamTally::operator+=(const SamTally& o) noexcept {
  records += o.records;
  aligned_reads += o.aligned_reads;
  truth_hits += o.truth_hits;
  return *this;
}

namespace {

template <typename T>
bool parse_int(std::string_view s, T& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

/// Query- and reference-consumed lengths of a CIGAR; false if malformed.
bool cigar_lengths(std::string_view cigar, std::size_t& qlen,
                   std::size_t& rlen) {
  qlen = rlen = 0;
  if (cigar.empty() || cigar == "*") return false;
  std::size_t n = 0;
  bool have_n = false;
  for (const char c : cigar) {
    if (c >= '0' && c <= '9') {
      n = n * 10 + static_cast<std::size_t>(c - '0');
      if (n > (1u << 30)) return false;
      have_n = true;
      continue;
    }
    if (!have_n || n == 0) return false;
    switch (c) {
      case 'M': case '=': case 'X': qlen += n; rlen += n; break;
      case 'I': case 'S': qlen += n; break;
      case 'D': case 'N': rlen += n; break;
      case 'H': case 'P': break;
      default: return false;
    }
    n = 0;
    have_n = false;
  }
  return !have_n && rlen > 0;
}

/// A read's best AS so far, and whether a record with that AS hit the truth.
struct Best {
  int score = 0;
  bool at_truth = false;
};

}  // namespace

SamCheck check_sam(std::string_view text, const SamCatalog& catalog,
                   const ReadSet& sent, bool expect_header) {
  SamCheck out;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    out.ok = false;
    out.error = "SAM line " + std::to_string(line_no) + ": " + what;
    return out;
  };
  bool in_header = true, hd = false, pg = false;
  std::size_t sq = 0;
  const auto header_complete = [&] {
    return !expect_header || (hd && pg && sq == catalog.targets.size());
  };
  std::unordered_map<std::string_view, Best> best;
  std::string_view fields[12];

  std::size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    const auto nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return fail("truncated line (no newline)");
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;

    if (!line.empty() && line[0] == '@') {
      if (!expect_header) return fail("header line in a stream that already has one");
      if (!in_header) return fail("header line after records (duplicate header)");
      if (line.starts_with("@HD\t")) {
        if (hd || sq > 0) return fail("duplicate or misplaced @HD");
        hd = true;
      } else if (line.starts_with("@SQ\t")) {
        if (!hd) return fail("@SQ before @HD");
        if (sq >= catalog.targets.size()) return fail("more @SQ lines than targets");
        const auto& t = catalog.targets[sq];
        const std::string want =
            "@SQ\tSN:" + t.name + "\tLN:" + std::to_string(t.length);
        if (line != want) return fail("@SQ does not match target " + t.name);
        ++sq;
      } else if (line.starts_with("@PG\t")) {
        if (pg) return fail("duplicate @PG");
        pg = true;
      } else {
        return fail("unknown header line");
      }
      continue;
    }
    if (in_header) {
      in_header = false;
      if (!header_complete()) return fail("incomplete header before records");
    }

    std::size_t nf = 0, b = 0;
    while (nf < 12) {
      const auto tab = line.find('\t', b);
      fields[nf++] = line.substr(b, tab == std::string_view::npos ? tab : tab - b);
      if (tab == std::string_view::npos) break;
      b = tab + 1;
    }
    if (nf < 11) return fail("record has fewer than 11 fields");
    const std::string_view qname = fields[0], rname = fields[2],
                           cigar = fields[5], seqf = fields[9];
    unsigned flag = 0, mapq = 0;
    std::size_t pos1 = 0;
    if (!parse_int(fields[1], flag) || flag > 0xFFF) return fail("bad FLAG");
    if (!parse_int(fields[3], pos1) || pos1 == 0) return fail("bad POS");
    if (!parse_int(fields[4], mapq) || mapq > 255) return fail("bad MAPQ");
    const auto sent_it = sent.by_name.find(qname);
    if (sent_it == sent.by_name.end())
      return fail("QNAME '" + std::string(qname) + "' was never sent");
    const auto cat_it = catalog.by_name.find(rname);
    if (cat_it == catalog.by_name.end())
      return fail("RNAME '" + std::string(rname) + "' not in the reference");
    std::size_t qlen = 0, rlen = 0;
    if (!cigar_lengths(cigar, qlen, rlen)) return fail("malformed CIGAR");
    if (seqf.empty() || seqf == "*") return fail("missing SEQ");
    if (qlen != seqf.size()) return fail("CIGAR query length != SEQ length");
    const auto& target = catalog.targets[cat_it->second];
    if (pos1 - 1 + rlen > target.length) return fail("alignment runs past the contig end");
    if (fields[10] != "*" && fields[10].size() != seqf.size())
      return fail("QUAL length != SEQ length");

    int score = 0;
    for (std::size_t i = 11; i < nf; ++i)
      if (fields[i].starts_with("AS:i:") && !parse_int(fields[i].substr(5), score))
        return fail("bad AS tag");
    ++out.tally.records;
    const auto& truth = sent_it->second;
    const std::size_t gpos = target.truth.start + pos1 - 1;
    const bool at_truth = !truth.junk && gpos + kTruthSlack >= truth.pos &&
                          gpos <= truth.pos + kTruthSlack &&
                          ((flag & 0x10u) != 0) == truth.reverse;
    const auto [it, fresh] = best.try_emplace(qname, Best{score, at_truth});
    if (fresh) continue;
    if (score > it->second.score)
      it->second = {score, at_truth};
    else if (score == it->second.score)
      it->second.at_truth |= at_truth;
  }
  if (in_header && !header_complete()) return fail("incomplete header");

  out.tally.aligned_reads = best.size();
  for (const auto& [qname, b] : best) out.tally.truth_hits += b.at_truth ? 1 : 0;
  return out;
}

}  // namespace e2e
