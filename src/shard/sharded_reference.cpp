#include "shard/sharded_reference.hpp"

#include <algorithm>
#include <stdexcept>

#include "seq/fasta.hpp"

namespace mera::shard {

namespace detail {

struct ShardedReferenceState {
  ShardPlan plan;
  core::IndexConfig cfg;
  std::vector<core::IndexedReference> shards;
  /// Global id -> (shard, shard-local id).
  std::vector<std::pair<int, std::uint32_t>> shard_of;
  /// Merged @SQ catalog, global-id order.
  std::vector<core::SamTarget> catalog;
  pgas::PhaseReport build_report;  ///< shard reports appended in order
};

}  // namespace detail

namespace {

using detail::ShardedReferenceState;

void validate_plan(const ShardPlan& plan, std::size_t n_targets) {
  if (plan.shards.empty())
    throw std::invalid_argument("ShardedReference: plan has no shards");
  std::vector<char> seen(n_targets, 0);
  std::size_t covered = 0;
  for (const ShardPlan::Shard& s : plan.shards) {
    for (const std::uint32_t gid : s.targets) {
      if (gid >= n_targets || seen[gid])
        throw std::invalid_argument(
            "ShardedReference: plan is not a partition of the target set");
      seen[gid] = 1;
      ++covered;
    }
  }
  if (covered != n_targets)
    throw std::invalid_argument(
        "ShardedReference: plan does not cover every target");
}

std::shared_ptr<const ShardedReferenceState> compose(
    ShardPlan plan, core::IndexConfig cfg,
    std::vector<core::IndexedReference> shards) {
  auto st = std::make_shared<ShardedReferenceState>();
  st->plan = std::move(plan);
  st->cfg = cfg;
  st->shards = std::move(shards);

  std::size_t n = st->plan.num_targets();
  st->shard_of.assign(n, {0, 0});
  st->catalog.assign(n, {});
  for (std::size_t s = 0; s < st->shards.size(); ++s) {
    const auto& shard_targets = st->plan.shards[s].targets;
    const core::TargetStore& store = st->shards[s].targets();
    if (store.num_targets() != shard_targets.size())
      throw std::invalid_argument(
          "ShardedReference: shard target count does not match its plan");
    for (std::uint32_t local = 0; local < shard_targets.size(); ++local) {
      const std::uint32_t gid = shard_targets[local];
      st->shard_of[gid] = {static_cast<int>(s), local};
      const core::Target& t = store.target_unsync(local);
      st->catalog[gid] = core::SamTarget{t.name, t.seq.size()};
    }
    st->build_report.append(st->shards[s].build_report());
  }
  return st;
}

}  // namespace

ShardedReference ShardedReference::build(
    pgas::Runtime& rt, const std::vector<seq::SeqRecord>& targets,
    const ShardPlan& plan, core::IndexConfig cfg) {
  validate_plan(plan, targets.size());
  std::vector<core::IndexedReference> shards;
  shards.reserve(plan.shards.size());
  for (const ShardPlan::Shard& s : plan.shards) {
    std::vector<seq::SeqRecord> shard_targets;
    shard_targets.reserve(s.targets.size());
    for (const std::uint32_t gid : s.targets) shard_targets.push_back(targets[gid]);
    shards.push_back(core::IndexedReference::build(rt, shard_targets, cfg));
  }
  return ShardedReference(compose(plan, cfg, std::move(shards)));
}

ShardedReference ShardedReference::build(
    pgas::Runtime& rt, const std::vector<seq::SeqRecord>& targets, int shards,
    core::IndexConfig cfg) {
  ShardPlanOptions opt;
  opt.shards = shards;
  opt.k = cfg.k;
  return build(rt, targets, plan_shards(targets, opt), cfg);
}

ShardedReference ShardedReference::build_from_fastas(
    pgas::Runtime& rt, const std::vector<std::string>& fastas,
    core::IndexConfig cfg) {
  if (fastas.empty())
    throw std::invalid_argument("ShardedReference: no target files");
  std::vector<core::IndexedReference> shards;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint64_t> weights;  // total bases per file
  shards.reserve(fastas.size());
  for (const std::string& path : fastas) {
    shards.push_back(core::IndexedReference::build_from_fasta(rt, path, cfg));
    const core::TargetStore& store = shards.back().targets();
    sizes.push_back(store.num_targets());
    std::uint64_t bases = 0;
    for (std::uint32_t t = 0; t < store.num_targets(); ++t)
      bases += store.target_unsync(t).seq.size();
    weights.push_back(bases);
  }
  return ShardedReference(
      compose(contiguous_plan(sizes, weights), cfg, std::move(shards)));
}

ShardedReference::ShardedReference(
    std::shared_ptr<const detail::ShardedReferenceState> st)
    : state_(std::move(st)) {}

int ShardedReference::num_shards() const noexcept {
  return static_cast<int>(state_->shards.size());
}

const core::IndexedReference& ShardedReference::shard(int s) const {
  return state_->shards.at(static_cast<std::size_t>(s));
}

const ShardPlan& ShardedReference::plan() const noexcept {
  return state_->plan;
}

const core::IndexConfig& ShardedReference::config() const noexcept {
  return state_->cfg;
}

const pgas::Topology& ShardedReference::topology() const noexcept {
  return state_->shards.front().topology();
}

std::uint32_t ShardedReference::num_targets() const noexcept {
  return static_cast<std::uint32_t>(state_->shard_of.size());
}

std::uint32_t ShardedReference::to_global(int s, std::uint32_t local_id) const {
  return state_->plan.shards.at(static_cast<std::size_t>(s))
      .targets.at(local_id);
}

std::pair<int, std::uint32_t> ShardedReference::to_shard(
    std::uint32_t global_id) const {
  return state_->shard_of.at(global_id);
}

const std::string& ShardedReference::target_name(std::uint32_t global_id) const {
  return state_->catalog.at(global_id).name;
}

std::size_t ShardedReference::target_length(std::uint32_t global_id) const {
  return state_->catalog.at(global_id).length;
}

const std::vector<core::SamTarget>& ShardedReference::sam_targets()
    const noexcept {
  return state_->catalog;
}

const pgas::PhaseReport& ShardedReference::build_report() const noexcept {
  return state_->build_report;
}

double ShardedReference::build_time_parallel_s() const {
  double t = 0.0;
  for (const auto& s : state_->shards)
    t = std::max(t, s.build_report().total_time_s());
  return t;
}

double ShardedReference::build_time_serial_s() const {
  return state_->build_report.total_time_s();
}

std::size_t ShardedReference::index_entries() const {
  std::size_t n = 0;
  for (const auto& s : state_->shards) n += s.index_entries();
  return n;
}

bool ShardedReference::exact_match_marked() const noexcept {
  for (const auto& s : state_->shards)
    if (!s.exact_match_marked()) return false;
  return true;
}

}  // namespace mera::shard
