#include "core/batch_prefetcher.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/fastq.hpp"
#include "seq/seqdb.hpp"

namespace mera::core {

namespace {

bool iends_with(std::string_view s, std::string_view suffix) {
  if (s.size() < suffix.size()) return false;
  const std::string_view tail = s.substr(s.size() - suffix.size());
  return std::equal(tail.begin(), tail.end(), suffix.begin(),
                    [](char a, char b) {
                      return std::tolower(static_cast<unsigned char>(a)) == b;
                    });
}

}  // namespace

bool looks_like_fastq(std::string_view path) {
  return iends_with(path, ".fastq") || iends_with(path, ".fq");
}

std::vector<seq::SeqRecord> load_read_batch(const std::string& path) {
  // A missing file is a caller mistake (typo'd path), not a format problem —
  // report it as such instead of blaming the SeqDB parser.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec)
    throw std::runtime_error("load_read_batch: '" + path +
                             "': no such file or directory");
  if (looks_like_fastq(path)) return seq::read_fastq(path);
  try {
    return seq::SeqDBReader(path).read_all();
  } catch (const std::exception& e) {
    throw std::runtime_error("load_read_batch: '" + path +
                             "' failed to load as SeqDB (extension does not "
                             "look like FASTQ): " +
                             e.what());
  }
}

BatchPrefetcher::BatchPrefetcher(exec::ThreadPool& pool,
                                 std::vector<std::string> paths)
    : pool_(&pool), paths_(std::move(paths)) {
  if (!paths_.empty()) start_load(0);
}

BatchPrefetcher::~BatchPrefetcher() {
  if (inflight_.valid()) inflight_.wait();
}

std::optional<BatchPrefetcher::Batch> BatchPrefetcher::next() {
  if (next_ >= paths_.size()) return std::nullopt;
  const obs::Span span("prefetch.stall", "io");
  const auto t0 = obs::wall_now();
  // Advance past the in-flight slot whether it loaded or threw: a caller
  // that catches a failed batch's error can keep calling next() and gets
  // the remaining files, not a dead future.
  Batch batch;
  try {
    batch = inflight_.get();
  } catch (...) {
    ++next_;
    if (next_ < paths_.size()) start_load(next_);
    throw;
  }
  batch.stall_s = detail::seconds_since(t0);
  {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("mera_prefetch_batches_total", {},
                "Reads batches handed out by the prefetcher")
        .inc();
    reg.counter("mera_prefetch_load_seconds_total", {},
                "Off-thread wall seconds spent loading reads batches")
        .add(batch.load_wall_s);
    reg.counter("mera_prefetch_stall_seconds_total", {},
                "Wall seconds the consumer blocked waiting on a load")
        .add(batch.stall_s);
  }
  ++next_;
  if (next_ < paths_.size()) start_load(next_);
  return batch;
}

void BatchPrefetcher::start_load(std::size_t i) {
  auto promise = std::make_shared<std::promise<Batch>>();
  inflight_ = promise->get_future();
  pool_->submit([promise, path = paths_[i]] {
    try {
      Batch batch;
      batch.path = path;
      const obs::Span span("prefetch.load", "io");
      const auto t0 = obs::wall_now();
      batch.records = load_read_batch(path);
      batch.load_wall_s = detail::seconds_since(t0);
      promise->set_value(std::move(batch));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
}

}  // namespace mera::core
