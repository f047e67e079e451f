#include "seq/seqdb.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "seq/fastq.hpp"

namespace mera::seq {

namespace {

constexpr char kMagic[8] = {'M', 'E', 'R', 'A', 'S', 'D', 'B', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kFlagQuality = 1u;
constexpr std::size_t kHeaderBytes = 32;

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("SeqDB: truncated file");
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// SeqDBWriter
// ---------------------------------------------------------------------------

SeqDBWriter::SeqDBWriter(const std::string& path, bool store_quality)
    : out_(path, std::ios::binary), path_(path), store_quality_(store_quality) {
  if (!out_) throw std::runtime_error("SeqDB: cannot open for writing: " + path);
  out_.write(kMagic, sizeof(kMagic));
  write_pod(out_, kVersion);
  write_pod(out_, store_quality_ ? kFlagQuality : 0u);
  write_pod(out_, std::uint64_t{0});  // nrecords, backpatched
  write_pod(out_, std::uint64_t{0});  // index_offset, backpatched
}

SeqDBWriter::~SeqDBWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; an incomplete file fails magic-check on read.
  }
}

void SeqDBWriter::add(const SeqRecord& rec) {
  if (finished_) throw std::logic_error("SeqDB: add() after finish()");
  offsets_.push_back(static_cast<std::uint64_t>(out_.tellp()));

  const auto name_len = static_cast<std::uint16_t>(rec.name.size());
  if (rec.name.size() > 0xFFFF)
    throw std::invalid_argument("SeqDB: record name longer than 65535 bytes");
  write_pod(out_, name_len);
  out_.write(rec.name.data(), name_len);

  const auto seq_len = static_cast<std::uint32_t>(rec.seq.size());
  write_pod(out_, seq_len);
  std::vector<std::uint32_t> n_pos;
  for (std::uint32_t i = 0; i < seq_len; ++i)
    if (encode_base(rec.seq[i]) == kInvalidBase) n_pos.push_back(i);
  const PackedSeq packed(rec.seq);  // Ns degrade to 'A'; recorded in n_pos
  for (std::uint64_t w : packed.words()) write_pod(out_, w);
  write_pod(out_, static_cast<std::uint32_t>(n_pos.size()));
  for (std::uint32_t p : n_pos) write_pod(out_, p);

  if (store_quality_) {
    if (rec.qual.size() != rec.seq.size())
      throw std::invalid_argument(
          "SeqDB: quality/sequence length mismatch for record '" + rec.name +
          "'");
    out_.write(rec.qual.data(), static_cast<std::streamsize>(rec.qual.size()));
  }
  if (!out_) throw std::runtime_error("SeqDB: write failed: " + path_);
}

void SeqDBWriter::finish() {
  if (finished_) return;
  finished_ = true;
  const auto index_offset = static_cast<std::uint64_t>(out_.tellp());
  for (std::uint64_t off : offsets_) write_pod(out_, off);
  out_.seekp(16);
  write_pod(out_, static_cast<std::uint64_t>(offsets_.size()));
  write_pod(out_, index_offset);
  out_.flush();
  if (!out_) throw std::runtime_error("SeqDB: finalize failed: " + path_);
}

// ---------------------------------------------------------------------------
// SeqDBReader
// ---------------------------------------------------------------------------

SeqDBReader::SeqDBReader(const std::string& path)
    : SeqDBReader(std::make_unique<std::ifstream>(path, std::ios::binary),
                  path) {}

SeqDBReader SeqDBReader::from_bytes(std::string bytes) {
  return SeqDBReader(std::make_unique<std::istringstream>(std::move(bytes)),
                     "<in-memory SeqDB>");
}

SeqDBReader::SeqDBReader(std::unique_ptr<std::istream> in,
                         const std::string& source)
    : in_(std::move(in)) {
  if (!*in_)
    throw std::runtime_error("SeqDB: cannot open for reading: " + source);
  in_->seekg(0, std::ios::end);
  const auto total = static_cast<std::uint64_t>(in_->tellg());
  in_->seekg(0);
  char magic[8];
  in_->read(magic, sizeof(magic));
  if (!*in_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("SeqDB: bad magic (not a SeqDB file): " + source);
  if (total < kHeaderBytes)
    throw std::runtime_error("SeqDB: truncated header (" +
                             std::to_string(total) + " bytes): " + source);
  const auto version = read_pod<std::uint32_t>(*in_);
  if (version != kVersion)
    throw std::runtime_error("SeqDB: unsupported version");
  const auto flags = read_pod<std::uint32_t>(*in_);
  store_quality_ = (flags & kFlagQuality) != 0;
  const auto nrecords = read_pod<std::uint64_t>(*in_);
  const auto index_offset = read_pod<std::uint64_t>(*in_);
  if (index_offset < kHeaderBytes || index_offset > total)
    throw std::runtime_error("SeqDB: index_offset " +
                             std::to_string(index_offset) + " outside the " +
                             std::to_string(total) + "-byte image: " + source);
  if (nrecords > (total - index_offset) / sizeof(std::uint64_t))
    throw std::runtime_error(
        "SeqDB: nrecords " + std::to_string(nrecords) + " exceeds the " +
        std::to_string(total - index_offset) + "-byte record index: " + source);
  records_end_ = index_offset;
  in_->seekg(static_cast<std::streamoff>(index_offset));
  offsets_.resize(nrecords);
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    offsets_[i] = read_pod<std::uint64_t>(*in_);
    if (offsets_[i] < kHeaderBytes || offsets_[i] >= records_end_)
      throw std::runtime_error("SeqDB: record offset " + std::to_string(i) +
                               " (" + std::to_string(offsets_[i]) +
                               ") outside the record area: " + source);
  }
}

std::pair<std::size_t, std::size_t> SeqDBReader::partition(int rank,
                                                           int nranks) const {
  if (rank < 0 || nranks < 1 || rank >= nranks)
    throw std::invalid_argument("SeqDB::partition: bad rank/nranks");
  const std::size_t n = offsets_.size();
  const auto r = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(nranks);
  return {n * r / p, n * (r + 1) / p};
}

PackedRead SeqDBReader::decode(std::size_t i, std::string* qual) {
  if (i >= offsets_.size()) throw std::out_of_range("SeqDB: record index");
  // Every length is checked against the bytes left before the index, so a
  // corrupt field can neither over-read nor over-allocate.
  std::uint64_t left = records_end_ - offsets_[i];
  const auto take = [&](std::uint64_t bytes, const char* field) {
    if (bytes > left)
      throw std::runtime_error("SeqDB: record " + std::to_string(i) + ": " +
                               field + " needs " + std::to_string(bytes) +
                               " bytes, " + std::to_string(left) +
                               " left before the index");
    left -= bytes;
  };
  in_->seekg(static_cast<std::streamoff>(offsets_[i]));
  PackedRead rec;
  take(sizeof(std::uint16_t), "name_len");
  const auto name_len = read_pod<std::uint16_t>(*in_);
  take(name_len, "name_len");
  rec.name.resize(name_len);
  in_->read(rec.name.data(), name_len);
  if (const std::string why = qname_defect(rec.name); !why.empty())
    throw std::runtime_error("SeqDB: record " + std::to_string(i) + ": " + why);
  take(sizeof(std::uint32_t), "seq_len");
  const auto seq_len = read_pod<std::uint32_t>(*in_);
  const std::uint64_t nwords = (std::uint64_t{seq_len} + 31) / 32;
  take(nwords * sizeof(std::uint64_t), "seq_len");
  std::vector<std::uint64_t> words(nwords);
  for (auto& w : words) w = read_pod<std::uint64_t>(*in_);
  rec.seq = PackedSeq::from_words(std::move(words), seq_len);
  take(sizeof(std::uint32_t), "n_count");
  const auto n_count = read_pod<std::uint32_t>(*in_);
  take(std::uint64_t{n_count} * sizeof(std::uint32_t), "n_count");
  rec.n_pos.resize(n_count);
  for (auto& p : rec.n_pos) {
    p = read_pod<std::uint32_t>(*in_);
    if (p >= seq_len)
      throw std::runtime_error("SeqDB: record " + std::to_string(i) +
                               ": N position " + std::to_string(p) +
                               " not below seq_len " + std::to_string(seq_len));
  }
  if (qual && store_quality_) {
    take(seq_len, "quality");
    qual->resize(seq_len);
    in_->read(qual->data(), seq_len);
  }
  if (!*in_) throw std::runtime_error("SeqDB: truncated record");
  return rec;
}

PackedRead SeqDBReader::read_packed(std::size_t i) { return decode(i, nullptr); }

SeqRecord SeqDBReader::read(std::size_t i) {
  SeqRecord rec;
  PackedRead pr = decode(i, &rec.qual);
  rec.name = std::move(pr.name);
  rec.seq = pr.seq.to_string();
  for (std::uint32_t p : pr.n_pos) rec.seq[p] = 'N';
  return rec;
}

std::vector<SeqRecord> SeqDBReader::read_all() {
  std::vector<SeqRecord> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(read(i));
  return out;
}

// ---------------------------------------------------------------------------

void fastq_to_seqdb(const std::string& fastq_path, const std::string& db_path,
                    bool store_quality) {
  const auto recs = read_fastq(fastq_path);
  write_seqdb(db_path, recs, store_quality);
}

void write_seqdb(const std::string& path, const std::vector<SeqRecord>& recs,
                 bool store_quality) {
  SeqDBWriter w(path, store_quality);
  for (const auto& r : recs) w.add(r);
  w.finish();
}

}  // namespace mera::seq
