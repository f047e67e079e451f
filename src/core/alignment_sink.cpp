#include "core/alignment_sink.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/indexed_reference.hpp"
#include "core/sam_writer.hpp"

namespace mera::core {

// ---------------------------------------------------------------------------
// VectorSink
// ---------------------------------------------------------------------------

VectorSink::VectorSink(int nranks)
    : per_rank_(static_cast<std::size_t>(nranks)) {}

void VectorSink::emit(int rank, const seq::SeqRecord& /*read*/,
                      AlignmentRecord&& rec) {
  per_rank_[static_cast<std::size_t>(rank)].push_back(std::move(rec));
}

std::vector<AlignmentRecord> VectorSink::take() {
  std::size_t total = 0;
  for (const auto& v : per_rank_) total += v.size();
  std::vector<AlignmentRecord> out;
  out.reserve(total);
  for (auto& v : per_rank_) {
    for (auto& rec : v) out.push_back(std::move(rec));
    v.clear();
  }
  return out;
}

std::size_t VectorSink::size() const {
  std::size_t total = 0;
  for (const auto& v : per_rank_) total += v.size();
  return total;
}

// ---------------------------------------------------------------------------
// CountingSink
// ---------------------------------------------------------------------------

void CountingSink::emit(int /*rank*/, const seq::SeqRecord& /*read*/,
                        AlignmentRecord&& /*rec*/) {
  records_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SamStreamSink
// ---------------------------------------------------------------------------

SamStreamSink::SamStreamSink(std::ostream& os, const IndexedReference& ref,
                             SamProgram pg)
    : SamStreamSink(os, sam_targets(ref.targets()), ref.nranks(),
                    std::move(pg)) {}

SamStreamSink::SamStreamSink(std::ostream& os, std::vector<SamTarget> targets,
                             int nranks, SamProgram pg)
    : os_(&os),
      targets_(std::move(targets)),
      pg_(std::move(pg)),
      per_rank_(static_cast<std::size_t>(nranks)) {}

namespace {

/// A rank buffer's chunk size, and the room a chunk must have left to take
/// another line; a longer line just grows its chunk.
constexpr std::size_t kChunkBytes = 32 * 1024;
constexpr std::size_t kLineRoom = 1024;

}  // namespace

void SamStreamSink::emit(int rank, const seq::SeqRecord& read,
                         AlignmentRecord&& rec) {
  RankBuffer& buf = per_rank_[static_cast<std::size_t>(rank)];
  if (buf.chunks.empty() ||
      buf.chunks.back().size() > kChunkBytes - kLineRoom)
    buf.chunks.emplace_back().reserve(kChunkBytes);
  append_sam_record(buf.chunks.back(), rec, targets_[rec.target_id].name,
                    read.seq);
  ++buf.records;
}

void SamStreamSink::batch_end() {
  if (!header_written_) {
    write_sam_header(*os_, targets_, pg_);
    header_written_ = true;
  }
  for (RankBuffer& buf : per_rank_) {
    for (const std::string& chunk : buf.chunks)
      os_->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    written_ += buf.records;
    buf = RankBuffer{};
  }
}

// ---------------------------------------------------------------------------
// SamFileSink
// ---------------------------------------------------------------------------

struct SamFileSink::Impl {
  Impl(const std::string& path, std::vector<SamTarget> targets, int nranks,
       SamProgram pg)
      : os(path), sam(os, std::move(targets), nranks, std::move(pg)) {}
  std::ofstream os;
  SamStreamSink sam;
};

SamFileSink::SamFileSink(const std::string& path, const IndexedReference& ref,
                         SamProgram pg)
    : SamFileSink(path, sam_targets(ref.targets()), ref.nranks(),
                  std::move(pg)) {}

SamFileSink::SamFileSink(const std::string& path,
                         std::vector<SamTarget> targets, int nranks,
                         SamProgram pg)
    : impl_(std::make_unique<Impl>(path, std::move(targets), nranks,
                                   std::move(pg))),
      path_(path) {
  if (!impl_->os)
    throw std::runtime_error("cannot open for writing: " + path_);
}

SamFileSink::~SamFileSink() = default;

void SamFileSink::emit(int rank, const seq::SeqRecord& read,
                       AlignmentRecord&& rec) {
  impl_->sam.emit(rank, read, std::move(rec));
}

void SamFileSink::batch_end() {
  impl_->sam.batch_end();
  impl_->os.flush();
  if (!impl_->os) throw std::runtime_error("write failed: " + path_);
}

std::uint64_t SamFileSink::records_written() const noexcept {
  return impl_->sam.records_written();
}

// ---------------------------------------------------------------------------
// TeeSink
// ---------------------------------------------------------------------------

TeeSink::TeeSink(std::vector<AlignmentSink*> sinks)
    : sinks_(std::move(sinks)) {}

void TeeSink::emit(int rank, const seq::SeqRecord& read,
                   AlignmentRecord&& rec) {
  if (sinks_.empty()) return;
  for (std::size_t i = 0; i + 1 < sinks_.size(); ++i)
    sinks_[i]->emit(rank, read, AlignmentRecord(rec));
  sinks_.back()->emit(rank, read, std::move(rec));
}

void TeeSink::batch_end() {
  for (AlignmentSink* s : sinks_) s->batch_end();
}

}  // namespace mera::core
