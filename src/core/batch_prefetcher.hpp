// Double-buffered loading for a stream of reads-batch files.
//
// A multi-batch screen needs each batch loaded (read and parsed) before it
// can align. Loading and aligning one after the other would idle the CPU
// during every load and the disk during every align. BatchPrefetcher
// overlaps them: the moment batch N is handed to the aligner, batch N+1
// starts loading on a pool worker, so a steady stream pays the load cost of
// only the FIRST batch on the critical path. Batches are always handed out in
// file order — the prefetcher reorders nothing, it only hides latency.
//
// Each file is loaded whole by load_read_batch (FASTQ parsed, SeqDB read),
// so a prefetched batch holds exactly the records that
// align_batch(rt, load_read_batch(path), sink) would align.
#pragma once

#include <future>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/clock.hpp"
#include "seq/fasta.hpp"

namespace mera::core {

namespace detail {
/// Real (wall) seconds elapsed since `t0` — the clock the overlap
/// accounting uses everywhere (loads, stalls, end-to-end stream walls).
/// Delegates to obs so every layer reports time from one clock path.
using obs::seconds_since;
}  // namespace detail

/// True when `path`'s extension says FASTQ (.fastq/.fq, case-insensitive —
/// .FASTQ and .Fq are common in the wild and must not be misrouted to the
/// SeqDB reader). The single format sniff every reads-file consumer shares.
[[nodiscard]] bool looks_like_fastq(std::string_view path);

/// Load one reads-batch file into memory: FASTQ (per looks_like_fastq) is
/// parsed directly, anything else is read as SeqDB. A SeqDB parse failure is
/// reported with the path and the format guess, so a mis-named file doesn't
/// surface as a bare SeqDB error.
[[nodiscard]] std::vector<seq::SeqRecord> load_read_batch(
    const std::string& path);

class BatchPrefetcher {
 public:
  struct Batch {
    std::string path;
    std::vector<seq::SeqRecord> records;
    double load_wall_s = 0.0;  ///< real seconds the load took (off-thread)
    double stall_s = 0.0;      ///< real seconds next() blocked waiting for it
  };

  /// Starts loading paths[0] on `pool` immediately. The pool must outlive
  /// the prefetcher; one worker is enough (loads are sequential by design —
  /// only ONE batch is in flight, so memory is bounded by two batches: the
  /// one aligning and the one loading).
  BatchPrefetcher(exec::ThreadPool& pool, std::vector<std::string> paths);
  /// Joins any in-flight load (its result is discarded).
  ~BatchPrefetcher();
  BatchPrefetcher(const BatchPrefetcher&) = delete;
  BatchPrefetcher& operator=(const BatchPrefetcher&) = delete;

  /// Next batch in file order: blocks until its load completes (rethrowing
  /// any load error), kicks off the following file's load, and returns the
  /// records. A failed batch is consumed by its throw — catch and keep
  /// calling to get the remaining files. Empty once every path has been
  /// handed out.
  [[nodiscard]] std::optional<Batch> next();

 private:
  void start_load(std::size_t i);

  exec::ThreadPool* pool_;
  std::vector<std::string> paths_;
  std::size_t next_ = 0;
  std::future<Batch> inflight_;
};

}  // namespace mera::core
