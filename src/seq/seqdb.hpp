// SeqDB: a binary, record-indexed container for short reads.
//
// Stand-in for the paper's SeqDB-on-HDF5 (Section V-A): the property the
// paper's aligner exploits is that the format is binary and *indexed*, so
// each rank can seek straight to its own record range (partition()) and read
// it with no text scanning and no master process — that is what makes its
// I/O phase fully parallel. This aligner loads a reads file whole
// (core::load_read_batch) and splits the in-memory batch into the same
// blocked rank ranges.
// Sequences are stored 2-bit packed (lossless for ACGT; reads containing N
// store an escape list), qualities optionally retained, so the FASTQ->SeqDB
// conversion is lossless and the file is typically ~40-50% of the FASTQ size.
//
// Layout (little-endian):
//   [0]  magic "MERASDB1" (8 bytes)
//   [8]  u32 version (=1)        [12] u32 flags (bit0: qualities stored)
//   [16] u64 nrecords            [24] u64 index_offset
//   [32] records...
//        per record: u16 name_len, name bytes,
//                    u32 seq_len, ceil(seq_len/32) u64 packed words,
//                    u32 n_count, n_count u32 N-positions,
//                    (if qualities) seq_len quality bytes
//   [index_offset] nrecords x u64 absolute record offsets
//
// The reader is an untrusted edge (daemon clients send SeqDB images): every
// header field, index entry and record length is checked against the known
// total size before anything is read or allocated, and a violation throws a
// std::runtime_error naming the field. A record name that cannot be a SAM
// QNAME (seq::qname_defect) is rejected the same way, naming the record.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "seq/fasta.hpp"  // SeqRecord
#include "seq/packed_seq.hpp"

namespace mera::seq {

struct PackedRead {
  std::string name;
  PackedSeq seq;                     ///< N bases packed as 'A'...
  std::vector<std::uint32_t> n_pos;  ///< ...with their positions recorded here
};

class SeqDBWriter {
 public:
  explicit SeqDBWriter(const std::string& path, bool store_quality = false);
  ~SeqDBWriter();
  SeqDBWriter(const SeqDBWriter&) = delete;
  SeqDBWriter& operator=(const SeqDBWriter&) = delete;

  void add(const SeqRecord& rec);
  /// Writes the record index + header backpatch. Called by dtor if omitted.
  void finish();

 private:
  std::ofstream out_;
  std::string path_;
  bool store_quality_;
  bool finished_ = false;
  std::vector<std::uint64_t> offsets_;
};

class SeqDBReader {
 public:
  explicit SeqDBReader(const std::string& path);
  /// Reads a SeqDB image held in memory (e.g. a socket payload), taking
  /// ownership of the bytes; same checks and record decoder as a file.
  [[nodiscard]] static SeqDBReader from_bytes(std::string bytes);

  [[nodiscard]] std::size_t size() const noexcept { return offsets_.size(); }
  [[nodiscard]] bool has_quality() const noexcept { return store_quality_; }

  /// Record range [first, last) owned by rank r of n (balanced block split).
  [[nodiscard]] std::pair<std::size_t, std::size_t> partition(
      int rank, int nranks) const;

  [[nodiscard]] SeqRecord read(std::size_t i);
  [[nodiscard]] PackedRead read_packed(std::size_t i);
  /// Every record, in file order.
  [[nodiscard]] std::vector<SeqRecord> read_all();

 private:
  SeqDBReader(std::unique_ptr<std::istream> in, const std::string& source);
  /// Decodes record i; its quality bytes go to `qual` when non-null.
  PackedRead decode(std::size_t i, std::string* qual);

  std::unique_ptr<std::istream> in_;
  bool store_quality_ = false;
  std::uint64_t records_end_ = 0;  ///< index_offset: records lie before it
  std::vector<std::uint64_t> offsets_;
};

/// One-time lossless conversion (the paper's FASTQ->SeqDB preprocessing).
void fastq_to_seqdb(const std::string& fastq_path, const std::string& db_path,
                    bool store_quality = true);

void write_seqdb(const std::string& path, const std::vector<SeqRecord>& recs,
                 bool store_quality = false);

}  // namespace mera::seq
