// Per-destination aggregation buffers (Section III-A, Figure 4).
//
// Each rank keeps n-1 local buffers of S entries, one per remote rank. An
// entry destined for rank j goes into buffer j; when that buffer fills, one
// remote aggregate transfer pushes the whole batch into rank j's
// LocalSharedStack. The optimization trades S*(n-1) extra memory per rank for
// an S-fold reduction in both message count and atomic count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dht/local_shared_stack.hpp"
#include "pgas/runtime.hpp"

namespace mera::dht {

template <typename T>
class AggregatingStore {
 public:
  /// `stacks[j]` is rank j's landing stack; `S` is the buffer size tuning
  /// parameter (the paper uses S = 1000).
  AggregatingStore(int nranks, std::size_t S,
                   std::vector<LocalSharedStack<T>>& stacks)
      : S_(S), stacks_(&stacks), buffers_(static_cast<std::size_t>(nranks)) {
    for (auto& b : buffers_) b.reserve(S);
  }

  /// Queue one entry for rank `dest`; flushes the buffer when it reaches S.
  void push(pgas::Rank& rank, int dest, const T& entry) {
    auto& buf = buffers_[static_cast<std::size_t>(dest)];
    buf.push_back(entry);
    if (buf.size() >= S_) flush(rank, dest);
  }

  /// Flush one destination buffer (one atomic + one aggregate transfer).
  void flush(pgas::Rank& rank, int dest) {
    auto& buf = buffers_[static_cast<std::size_t>(dest)];
    if (buf.empty()) return;
    (*stacks_)[static_cast<std::size_t>(dest)].push_batch(
        rank, std::span<const T>(buf));
    buf.clear();
  }

  /// Flush every remaining partial buffer; call before the end-of-deposit
  /// barrier so no entries are left behind.
  void flush_all(pgas::Rank& rank) {
    for (int dest = 0; dest < static_cast<int>(buffers_.size()); ++dest)
      flush(rank, dest);
  }

 private:
  std::size_t S_;
  std::vector<LocalSharedStack<T>>* stacks_;
  std::vector<std::vector<T>> buffers_;
};

}  // namespace mera::dht
