#include "core/indexed_reference.hpp"

#include <span>
#include <utility>

#include "seq/kmer.hpp"

namespace mera::core {

namespace detail {

struct IndexedReferenceState {
  IndexedReferenceState(IndexConfig cfg_in, const pgas::Topology& topo_in)
      : cfg(cfg_in),
        topo(topo_in),
        store(topo_in.nranks(),
              TargetStore::Options{cfg_in.k, cfg_in.fragment_len}),
        index(topo_in, dht::SeedIndex::Options{cfg_in.k,
                                               cfg_in.aggregating_stores,
                                               cfg_in.buffer_S}),
        build_stats(static_cast<std::size_t>(topo_in.nranks())) {}

  IndexConfig cfg;
  pgas::Topology topo;
  TargetStore store;
  dht::SeedIndex index;
  std::vector<PipelineStats> build_stats;
  pgas::PhaseReport report;
  bool marked = false;
};

}  // namespace detail

namespace {

using detail::IndexedReferenceState;

/// Iterate the seeds of one index fragment (a window of a packed target).
/// fn(offset_within_fragment, stranded_kmer).
template <typename Fn>
void for_each_fragment_seed(const seq::PackedSeq& t, std::size_t off,
                            std::size_t len, int k, Fn&& fn) {
  if (len < static_cast<std::size_t>(k)) return;
  auto m = seq::StrandedKmer::of(seq::Kmer::from_packed(t, off, k));
  fn(std::size_t{0}, std::as_const(m));
  for (std::size_t s = 1; s + static_cast<std::size_t>(k) <= len; ++s) {
    m.roll(t.code_at(off + s + static_cast<std::size_t>(k) - 1));
    fn(s, std::as_const(m));
  }
}

/// The SPMD build body: the first half of Algorithm 1 (io.targets,
/// index.build, index.mark).
void build_rank_body(pgas::Rank& rank, IndexedReferenceState& st,
                     std::span<const seq::SeqRecord> mem_targets,
                     const std::string& fasta_path) {
  const auto me = static_cast<std::size_t>(rank.id());
  const int nranks = rank.nranks();

  // ---- io.targets ----------------------------------------------------------
  rank.phase("io.targets");
  {
    std::vector<seq::SeqRecord> recs;
    if (!fasta_path.empty()) {
      recs = seq::read_fasta_partition(fasta_path, rank.id(), nranks);
    } else {
      const std::size_t n = mem_targets.size();
      const std::size_t lo = n * me / static_cast<std::size_t>(nranks);
      const std::size_t hi = n * (me + 1) / static_cast<std::size_t>(nranks);
      recs.assign(mem_targets.begin() + static_cast<std::ptrdiff_t>(lo),
                  mem_targets.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    st.store.add_local_targets(rank, std::move(recs));
  }
  st.store.finish_construction(rank);

  // ---- index.build ---------------------------------------------------------
  rank.phase("index.build");
  PipelineStats& stats = st.build_stats[me];
  const auto [flo, fhi] = st.store.local_fragment_range(rank.id());
  for (std::uint32_t fid = flo; fid < fhi; ++fid) {
    const Fragment& f = st.store.fragment_unsync(fid);
    const Target& t = st.store.target_unsync(f.parent_target);
    for_each_fragment_seed(t.seq, f.parent_offset, f.length, st.cfg.k,
                           [&](std::size_t, const seq::StrandedKmer& m) {
                             st.index.count_seed(rank, m);
                           });
  }
  st.index.finish_count(rank);
  for (std::uint32_t fid = flo; fid < fhi; ++fid) {
    const Fragment& f = st.store.fragment_unsync(fid);
    const Target& t = st.store.target_unsync(f.parent_target);
    for_each_fragment_seed(
        t.seq, f.parent_offset, f.length, st.cfg.k,
        [&](std::size_t off, const seq::StrandedKmer& m) {
          st.index.insert(
              rank, m,
              dht::SeedHit{fid, f.parent_target,
                           f.parent_offset + static_cast<std::uint32_t>(off)});
          ++stats.seeds_indexed;
        });
  }
  st.index.finish_insert(rank);

  // ---- index.mark (exact-match preprocessing) ------------------------------
  if (st.cfg.exact_match) {
    rank.phase("index.mark");
    st.index.for_each_local_marked_hit(
        rank, [&](const dht::SeedHit& h, bool duplicate, bool rc_indexed) {
          if (duplicate) st.store.clear_single_copy(rank, h.fragment_id);
          if (rc_indexed) st.store.clear_no_rc_seeds(rank, h.fragment_id);
        });
  }
  rank.barrier();  // flags must be globally visible before any aligning
}

std::shared_ptr<const IndexedReferenceState> build_state(
    pgas::Runtime& rt, std::span<const seq::SeqRecord> mem_targets,
    const std::string& fasta_path, IndexConfig cfg) {
  auto st = std::make_shared<IndexedReferenceState>(cfg, rt.topo());
  rt.run([&](pgas::Rank& rank) {
    build_rank_body(rank, *st, mem_targets, fasta_path);
  });
  st->report = rt.report();
  st->marked = cfg.exact_match;
  return st;
}

}  // namespace

IndexedReference IndexedReference::build(
    pgas::Runtime& rt, const std::vector<seq::SeqRecord>& targets,
    IndexConfig cfg) {
  return IndexedReference(build_state(rt, targets, {}, cfg));
}

IndexedReference IndexedReference::build_from_fasta(
    pgas::Runtime& rt, const std::string& target_fasta, IndexConfig cfg) {
  return IndexedReference(build_state(rt, {}, target_fasta, cfg));
}

IndexedReference::IndexedReference(
    std::shared_ptr<const detail::IndexedReferenceState> st)
    : state_(std::move(st)) {}

const IndexConfig& IndexedReference::config() const noexcept {
  return state_->cfg;
}
const TargetStore& IndexedReference::targets() const noexcept {
  return state_->store;
}
const dht::SeedIndex& IndexedReference::index() const noexcept {
  return state_->index;
}
const pgas::Topology& IndexedReference::topology() const noexcept {
  return state_->topo;
}
int IndexedReference::nranks() const noexcept { return state_->topo.nranks(); }
bool IndexedReference::exact_match_marked() const noexcept {
  return state_->marked;
}
const pgas::PhaseReport& IndexedReference::build_report() const noexcept {
  return state_->report;
}
const std::vector<PipelineStats>& IndexedReference::build_stats()
    const noexcept {
  return state_->build_stats;
}
double IndexedReference::single_copy_fraction() const {
  return state_->store.single_copy_fraction();
}
std::size_t IndexedReference::index_entries() const {
  return state_->index.total_entries();
}

std::uint64_t IndexedReference::fingerprint() const {
  // FNV-1a over the facts that determine target/fragment ids and seed-hit
  // lists: index-shaping config, topology, and every target's name, length
  // and packed payload (in global-id order, which is itself part of what is
  // being fingerprinted).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix64 = [&](std::uint64_t v) { mix(&v, sizeof v); };
  mix64(static_cast<std::uint64_t>(state_->cfg.k));
  mix64(static_cast<std::uint64_t>(state_->cfg.fragment_len));
  mix64(static_cast<std::uint64_t>(state_->topo.nranks()));
  mix64(static_cast<std::uint64_t>(state_->topo.ppn()));
  const std::uint32_t n = state_->store.num_targets();
  mix64(n);
  for (std::uint32_t gid = 0; gid < n; ++gid) {
    const Target& t = state_->store.target_unsync(gid);
    mix64(t.name.size());
    mix(t.name.data(), t.name.size());
    mix64(t.seq.size());
    const auto words = t.seq.words();
    mix(words.data(), words.size() * sizeof(std::uint64_t));
  }
  return h;
}

}  // namespace mera::core
