#include "seq/read_sim.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "seq/dna.hpp"

namespace mera::seq {

namespace {

struct Draft {
  std::size_t pos;
  bool reverse;
  bool junk;
  bool mate = false;  ///< second read of a pair (offset by insert)
  std::size_t insert = 0;
};

char random_base(std::mt19937_64& rng) {
  return decode_base(static_cast<std::uint8_t>(rng() & 3u));
}

char mutate(char c, std::mt19937_64& rng) {
  char m = c;
  while (m == c) m = random_base(rng);
  return m;
}

}  // namespace

std::vector<SeqRecord> simulate_reads(std::string_view genome,
                                      const ReadSimParams& p) {
  if (p.read_len == 0) throw std::invalid_argument("simulate_reads: read_len=0");
  if (genome.size() < p.read_len)
    throw std::invalid_argument("simulate_reads: genome shorter than read_len");
  std::mt19937_64 rng(p.rng_seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const auto n_total = static_cast<std::size_t>(
      p.depth * static_cast<double>(genome.size()) /
      static_cast<double>(p.read_len));
  const std::size_t span = genome.size() - p.read_len;
  std::uniform_int_distribution<std::size_t> pos_dist(0, span);
  std::normal_distribution<double> insert_dist(
      static_cast<double>(p.insert_mean), static_cast<double>(p.insert_sd));

  // Draw fragment positions first so "grouped" ordering can sort them.
  // In paired mode mates are emitted adjacently (pair parity is preserved:
  // reads 2i and 2i+1 are always mates), with the fragment position drawn so
  // the whole insert fits in the genome.
  std::vector<Draft> drafts;
  drafts.reserve(n_total);
  while (drafts.size() < n_total) {
    Draft d{};
    d.junk = unit(rng) < p.junk_fraction;
    d.reverse = (rng() & 1u) != 0;
    if (p.paired && drafts.size() + 2 <= n_total) {
      // FR library geometry: the fragment's left end is sequenced forward,
      // the right end reverse (mates face each other). Which mate appears
      // first in the file is random (fragments come off either strand).
      auto insert = static_cast<std::size_t>(
          std::max<double>(static_cast<double>(p.read_len), insert_dist(rng)));
      insert = std::min(insert, genome.size());
      std::uniform_int_distribution<std::size_t> frag_pos(
          0, genome.size() - insert);
      d.pos = frag_pos(rng);
      d.reverse = false;  // left mate: forward
      Draft mate = d;     // junk pairs stay junk on both mates
      mate.mate = true;
      mate.insert = insert;
      mate.pos = d.pos + insert - p.read_len;  // right mate: fragment's far end
      mate.reverse = true;
      if ((rng() & 1u) != 0)
        std::swap(d, mate);  // file order randomized, geometry preserved
      drafts.push_back(d);
      drafts.push_back(mate);
      continue;
    }
    d.pos = pos_dist(rng);
    drafts.push_back(d);
  }

  if (p.grouped)
    std::stable_sort(drafts.begin(), drafts.end(),
                     [](const Draft& a, const Draft& b) { return a.pos < b.pos; });

  std::vector<SeqRecord> reads;
  reads.reserve(drafts.size());
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const Draft& d = drafts[i];
    SeqRecord rec;
    if (d.junk) {
      rec.seq.resize(p.read_len);
      for (auto& c : rec.seq) c = random_base(rng);
    } else {
      rec.seq = std::string(genome.substr(d.pos, p.read_len));
      if (d.reverse) rec.seq = reverse_complement(rec.seq);
      for (auto& c : rec.seq) {
        if (unit(rng) < p.error_rate) c = mutate(c, rng);
        if (unit(rng) < p.n_rate) c = 'N';
      }
    }
    rec.name += 'r';
    rec.name += std::to_string(i);
    rec.name += ";pos=";
    rec.name += std::to_string(d.pos);
    rec.name += d.reverse ? ";strand=-" : ";strand=+";
    if (d.junk) rec.name += ";junk=1";
    rec.qual.assign(p.read_len, 'I');  // avoids '@'/'+': FASTQ-heuristic safe
    reads.push_back(std::move(rec));
  }
  return reads;
}

ReadTruth parse_read_truth(std::string_view read_name) {
  ReadTruth t;
  const auto pos_at = read_name.find(";pos=");
  const auto strand_at = read_name.find(";strand=");
  if (pos_at == std::string_view::npos || strand_at == std::string_view::npos)
    throw std::invalid_argument("parse_read_truth: name lacks truth fields");
  const std::string pos_field(
      read_name.substr(pos_at + 5, strand_at - pos_at - 5));
  try {
    t.pos = std::stoull(pos_field);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_read_truth: read '" +
                                std::string(read_name) +
                                "' has a malformed pos field '" + pos_field +
                                "'");
  }
  if (strand_at + 8 >= read_name.size())
    throw std::invalid_argument("parse_read_truth: read '" +
                                std::string(read_name) +
                                "' ends before the strand character");
  t.reverse = read_name[strand_at + 8] == '-';
  t.junk = read_name.find(";junk=1") != std::string_view::npos;
  return t;
}

}  // namespace mera::seq
