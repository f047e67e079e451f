#include "shard/shard_planner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace mera::shard {

std::size_t ShardPlan::num_targets() const noexcept {
  std::size_t n = 0;
  for (const Shard& s : shards) n += s.targets.size();
  return n;
}

std::uint64_t ShardPlan::total_weight() const noexcept {
  std::uint64_t w = 0;
  for (const Shard& s : shards) w += s.weight;
  return w;
}

std::uint64_t ShardPlan::max_weight() const noexcept {
  std::uint64_t w = 0;
  for (const Shard& s : shards) w = std::max(w, s.weight);
  return w;
}

double ShardPlan::imbalance() const noexcept {
  if (shards.empty()) return 0.0;
  const double mean = static_cast<double>(total_weight()) /
                      static_cast<double>(shards.size());
  return mean == 0.0 ? 1.0 : static_cast<double>(max_weight()) / mean;
}

std::uint64_t target_weight(const seq::SeqRecord& target, int k) {
  const std::uint64_t len = target.seq.size();
  const auto uk = static_cast<std::uint64_t>(k);
  return len > uk ? len - uk + 1 : 1;
}

ShardPlan plan_shards(const std::vector<seq::SeqRecord>& targets,
                      const ShardPlanOptions& opt) {
  if (opt.k < 1) throw std::invalid_argument("plan_shards: k < 1");
  const std::size_t n = targets.size();
  const int k_shards = std::clamp<int>(opt.shards, 1,
                                       static_cast<int>(std::max<std::size_t>(n, 1)));

  std::vector<std::uint64_t> weights(n);
  for (std::size_t i = 0; i < n; ++i)
    weights[i] = target_weight(targets[i], opt.k);

  // LPT: heaviest target first (ties broken by lower global id so the plan
  // is a pure function of the weights), each onto the lightest shard (ties
  // broken by lower shard id).
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return weights[a] != weights[b] ? weights[a] > weights[b]
                                              : a < b;
            });

  ShardPlan plan;
  plan.shards.resize(static_cast<std::size_t>(k_shards));
  for (const std::uint32_t gid : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < plan.shards.size(); ++s)
      if (plan.shards[s].weight < plan.shards[lightest].weight) lightest = s;
    plan.shards[lightest].targets.push_back(gid);
    plan.shards[lightest].weight += weights[gid];
  }

  // Shard-local target order follows global-id order, so a shard's local ids
  // are a monotone relabeling of its global ids.
  for (ShardPlan::Shard& s : plan.shards)
    std::sort(s.targets.begin(), s.targets.end());
  return plan;
}

ShardPlan contiguous_plan(const std::vector<std::uint32_t>& shard_sizes,
                          const std::vector<std::uint64_t>& shard_weights) {
  if (!shard_weights.empty() && shard_weights.size() != shard_sizes.size())
    throw std::invalid_argument("contiguous_plan: sizes/weights mismatch");
  ShardPlan plan;
  plan.shards.resize(shard_sizes.size());
  std::uint32_t gid = 0;
  for (std::size_t s = 0; s < shard_sizes.size(); ++s) {
    plan.shards[s].targets.resize(shard_sizes[s]);
    std::iota(plan.shards[s].targets.begin(), plan.shards[s].targets.end(),
              gid);
    gid += shard_sizes[s];
    plan.shards[s].weight =
        shard_weights.empty() ? shard_sizes[s] : shard_weights[s];
  }
  return plan;
}

}  // namespace mera::shard
