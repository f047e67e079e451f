// Alignment output sinks for the session-based aligner API.
//
// The aligning phase used to be hard-wired to "append into per-rank vectors,
// merge at the end, maybe post-process into SAM". AlignmentSink inverts that:
// rank workers push every reported record into a caller-supplied sink as it
// is produced, so callers choose — collect in memory (VectorSink), write SAM
// batch by batch (SamStreamSink — memory is bounded by one batch, so large
// inputs stream by splitting into batches), count only (CountingSink), or
// fan out to several at once (TeeSink).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/alignment.hpp"
#include "core/sam_writer.hpp"  // SamTarget, SamProgram
#include "seq/fasta.hpp"

namespace mera::core {

class IndexedReference;

/// Receives alignment records as the rank workers produce them.
///
/// emit() is called concurrently — one thread per rank, each with its own
/// distinct `rank` id — so implementations must either be lock-free per rank
/// (per-rank slots, as VectorSink/SamStreamSink do) or internally atomic.
/// Work done in emit() runs on the rank threads, in parallel (SamStreamSink
/// formats its SAM lines there). batch_end() runs once per batch on the
/// driving thread after every rank has finished, which is where cross-rank,
/// order-sensitive work belongs; the rank threads are idle while it runs, so
/// it should do as little as it can.
class AlignmentSink {
 public:
  virtual ~AlignmentSink() = default;

  /// `read` is the query in its original forward orientation (rec.reverse
  /// tells whether the reverse complement was the aligned strand).
  virtual void emit(int rank, const seq::SeqRecord& read,
                    AlignmentRecord&& rec) = 0;

  /// Collective epilogue of one align_batch() call.
  virtual void batch_end() {}
};

/// Collects records in per-rank buffers; take() flattens them rank-major
/// (the legacy merged-vector order) with one reserve and element moves.
class VectorSink final : public AlignmentSink {
 public:
  explicit VectorSink(int nranks);

  void emit(int rank, const seq::SeqRecord& read,
            AlignmentRecord&& rec) override;

  /// Flatten and return all collected records; leaves the sink empty and
  /// ready for the next batch.
  [[nodiscard]] std::vector<AlignmentRecord> take();

  [[nodiscard]] std::size_t size() const;

 private:
  std::vector<std::vector<AlignmentRecord>> per_rank_;
};

/// Counts records without storing them — the collect_alignments=false mode
/// of the legacy API, for benches that only want the counters.
class CountingSink final : public AlignmentSink {
 public:
  void emit(int rank, const seq::SeqRecord& read,
            AlignmentRecord&& rec) override;

  [[nodiscard]] std::uint64_t records() const noexcept {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> records_{0};
};

/// Streams SAM to an ostream across batches. emit() formats each record's
/// SAM line on the emitting rank's thread, straight into that rank's byte
/// buffer, so formatting runs inside the rank team. batch_end() writes the
/// header once (on the first batch), then every rank's buffer in rank order:
/// rank-major record order, byte-identical to the legacy collect-then-write
/// path for a single batch. Formatted bytes live only until their batch
/// ends, so memory is bounded by one batch, not the whole session.
class SamStreamSink final : public AlignmentSink {
 public:
  SamStreamSink(std::ostream& os, const IndexedReference& ref,
                SamProgram pg = {});
  /// Catalog form: records' target_id values index into `targets`. This is
  /// how composed references (shard::ShardedReference) stream SAM — they
  /// supply the merged global catalog instead of a single TargetStore.
  SamStreamSink(std::ostream& os, std::vector<SamTarget> targets, int nranks,
                SamProgram pg = {});

  void emit(int rank, const seq::SeqRecord& read,
            AlignmentRecord&& rec) override;
  void batch_end() override;

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return written_;
  }

 private:
  /// One rank's finished SAM lines of the current batch, in fixed-size
  /// chunks: a growing batch appends a chunk instead of copying what it
  /// holds into a buffer twice the size. Each buffer has its own cache line,
  /// so ranks appending side by side do not share one.
  struct alignas(64) RankBuffer {
    std::vector<std::string> chunks;  ///< only the last one is appended to
    std::uint64_t records = 0;
  };

  std::ostream* os_;
  std::vector<SamTarget> targets_;  ///< name+length per global target id
  SamProgram pg_;
  std::vector<RankBuffer> per_rank_;
  std::uint64_t written_ = 0;
  bool header_written_ = false;
};

/// SamStreamSink over a file it owns: opens on construction (throws when the
/// path is unwritable), flushes and checks the stream after every batch so
/// write errors surface at the batch boundary instead of being discovered —
/// or missed — at destruction.
class SamFileSink final : public AlignmentSink {
 public:
  SamFileSink(const std::string& path, const IndexedReference& ref,
              SamProgram pg = {});
  /// Catalog form (see SamStreamSink).
  SamFileSink(const std::string& path, std::vector<SamTarget> targets,
              int nranks, SamProgram pg = {});
  ~SamFileSink() override;

  void emit(int rank, const seq::SeqRecord& read,
            AlignmentRecord&& rec) override;
  void batch_end() override;

  [[nodiscard]] std::uint64_t records_written() const noexcept;

 private:
  struct Impl;  // ofstream + SamStreamSink, ordered for safe construction
  std::unique_ptr<Impl> impl_;
  std::string path_;
};

/// Forwards every record to several sinks (e.g. collect AND stream SAM).
class TeeSink final : public AlignmentSink {
 public:
  explicit TeeSink(std::vector<AlignmentSink*> sinks);

  void emit(int rank, const seq::SeqRecord& read,
            AlignmentRecord&& rec) override;
  void batch_end() override;

 private:
  std::vector<AlignmentSink*> sinks_;
};

}  // namespace mera::core
