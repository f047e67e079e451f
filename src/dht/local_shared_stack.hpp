// Local-shared stacks: the landing zones of the "aggregating stores"
// optimization (Section III-A, Figure 4).
//
// Every rank owns a pre-allocated stack in shared space where *other* ranks
// deposit batches of hash-table entries destined for it. A writer reserves a
// disjoint slot range with a global atomic_fetchadd on the owner's stack_ptr
// (steps (a)+(b) of the paper), then writes the batch with one aggregate
// one-sided put (step (c)). Because ranges are disjoint, no locks are needed
// anywhere — this is what makes the resulting hash table lock-free.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pgas/runtime.hpp"

namespace mera::dht {

template <typename T>
class LocalSharedStack {
 public:
  LocalSharedStack() : stack_ptr_(0) {}

  /// Owner pre-allocates capacity (exact incoming entry count is known from
  /// the counting pre-pass, so no overflow handling is needed at runtime).
  void allocate(int owner_rank, std::size_t capacity) {
    owner_ = owner_rank;
    storage_.resize(capacity);
    stack_ptr_.reset(owner_rank, 0);
  }

  /// Deposit `batch` into this stack (called by any rank). One global atomic
  /// + one aggregate transfer, regardless of batch size.
  void push_batch(pgas::Rank& rank, std::span<const T> batch) {
    if (batch.empty()) return;
    const std::uint64_t pos = rank.atomic_fetch_add(stack_ptr_, batch.size());
    if (pos + batch.size() > storage_.size())
      throw std::logic_error("LocalSharedStack overflow: counting pre-pass "
                             "and deposits disagree");
    rank.put(owner_, batch.data(), storage_.data() + pos, batch.size());
  }

  /// Owner moves the deposited entries out, leaving the stack empty. Call
  /// after the barrier that ends the deposit phase.
  [[nodiscard]] std::vector<T> take() {
    storage_.resize(stack_ptr_.load_unsync());
    stack_ptr_.reset(owner_, 0);
    return std::move(storage_);  // leaves storage_ empty
  }

 private:
  int owner_ = 0;
  std::vector<T> storage_;
  pgas::GlobalCounter stack_ptr_;
};

}  // namespace mera::dht
