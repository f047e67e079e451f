#include "core/align_session.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "align/pooled_queue.hpp"
#include "cache/cache_snapshot.hpp"
#include "core/exact_match.hpp"
#include "core/file_stream.hpp"
#include "core/load_balance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/kmer.hpp"

namespace mera::core {

namespace {

/// Everything the per-batch rank bodies share. Built on the driving thread
/// before Runtime::run(); ranks touch only their own slots or read-only data.
struct BatchShared {
  const SessionConfig& cfg;
  const TargetStore& store;
  const dht::SeedIndex& index;
  int k;                ///< seed length (from the reference's IndexConfig)
  bool use_exact;       ///< Lemma-1 path: requested AND the index is marked
  cache::SeedIndexCache* scache;  ///< session-owned; null when disabled
  cache::TargetCache* tcache;
  AlignmentSink& sink;
  std::vector<PipelineStats> stats;
  std::vector<align::LaneStats> lane_stats;  ///< per rank
  /// Per-rank traced-sweep buffers, owned by the session so they are
  /// allocated once and reused by every batch.
  std::span<align::TraceScratch> trace_scratch;
  /// The batch, already permuted when the session permutes queries.
  std::span<const seq::SeqRecord> reads;
};

/// One entry of a rank's emission log. Every candidate that reaches the
/// pooled queue, every exact match and every read boundary takes a slot, in
/// discovery order; a cursor replays the resolved prefix into the sink. The
/// queue only decides WHEN a candidate's slot resolves (when its length-class
/// bucket flushes), so sink order, stats and SAM bytes are the same on every
/// ISA tier and for every flush schedule.
struct Slot {
  enum class State : std::uint8_t { kPending, kResolved, kReadEnd };
  State state = State::kPending;
  bool reverse = false;
  std::uint32_t target_id = 0;
  const seq::SeqRecord* read = nullptr;
  std::optional<AlignmentRecord> rec;  ///< set when resolved and reportable
  /// Candidates only: the window's target offset, which turns the
  /// window-local alignment into target coordinates.
  std::size_t window_begin = 0;
};

/// One valid seed window of the read being aligned and what its lookups
/// returned. The forward pass reads side 0 (the hits of seed.fwd); the
/// reverse pass reads side 1 (those of seed.rc) in mirrored order: seed.rc
/// starts at offset qlen - k - q_off of the reverse-complemented read.
struct ReadSeed {
  seq::StrandedKmer seed;
  std::size_t q_off = 0;  ///< forward-strand offset
  /// Set when the window enters the prefetch horizon (RankAligner::enter):
  /// its index probe, its seed.fwd hash for the node cache, and whether its
  /// owner is off-node, each computed once.
  dht::SeedIndex::Probe probe{};
  std::uint64_t cache_hash = 0;
  bool off_node = false;
  bool probed = false;
  bool looked_up = false;
  /// False after the node cache served seed.fwd: it holds one orientation,
  /// so side 1 takes a lookup of its own if the reverse pass needs it.
  bool rc_known = false;
  std::array<std::size_t, 2> total{};  ///< per side: index-wide count
  std::array<std::uint32_t, 2> begin{}, count{};  ///< per side: in hits_
};

/// One orientation of the read being aligned, built on first use.
struct Strand {
  Strand(bool rev, std::string_view oriented)
      : reverse(rev), packed(oriented), codes(align::dna_codes(oriented)) {}
  bool reverse;
  seq::PackedSeq packed;
  std::vector<std::uint8_t> codes;
  /// This strand's query id in the pooled queue, registered lazily on the
  /// first candidate (duplicate query bytes dedup inside the queue).
  std::optional<std::size_t> pooled_qid;
};

/// Per-rank aligning-phase worker (seed-and-extend with caches, the Lemma-1
/// fast path and the max-hits threshold — the second half of Algorithm 1).
/// A read's seed lookups run as a software pipeline: each window is hashed
/// once when it enters the prefetch horizon (enter), its index bucket and
/// node-cache set are prefetched then, its run head a few windows later,
/// and the lookups themselves resolve in the order the passes ask for them
/// (looked_up), so results, stats and modeled messages do not depend on the
/// prefetching.
class RankAligner {
 public:
  RankAligner(pgas::Rank& rank, BatchShared& sh)
      : rank_(rank),
        sh_(sh),
        st_(sh.stats[static_cast<std::size_t>(rank.id())]),
        min_score_(sh.cfg.min_report_score >= 0
                       ? sh.cfg.min_report_score
                       : sh.cfg.extension.scoring.match * sh.k),
        pool_({sh.cfg.extension.scoring, sh.cfg.extension.isa,
               &sh.trace_scratch[static_cast<std::size_t>(rank.id())]},
              [this](std::uint64_t tag, const align::LocalAlignment& aln) {
                resolve(slots_[static_cast<std::size_t>(tag)], aln);
              }) {}

  void align_read(const seq::SeqRecord& read) {
    ++st_.reads_processed;
    read_ = &read;
    seen_.clear();
    seeds_.clear();
    for (auto& h : hits_) h.clear();
    for (auto& s : strands_) s.reset();
    seq::for_each_stranded_seed(
        std::string_view(read.seq), sh_.k,
        [&](std::size_t q_off, const seq::StrandedKmer& m) {
          seeds_.push_back({m, q_off});
        });
    if (!seeds_.empty()) {
      // The exact path looks up the first and the last window first.
      horizon_ = 0;
      enter(horizon_++);
      enter(seeds_.size() - 1);
      align_seeds(sh_.use_exact && read.seq.find('N') == std::string::npos);
    }
    slots_.emplace_back().state = Slot::State::kReadEnd;
    advance_cursor();
  }

  /// Batch end: force-score everything still pending, replay the tail of the
  /// emission log, and hand the rank's lane occupancy to the batch result.
  void finish() {
    pool_.drain();
    advance_cursor();
    sh_.lane_stats[static_cast<std::size_t>(rank_.id())] = pool_.lane_stats();
  }

 private:
  /// The forward strand pass, then the reverse strand pass, over seeds_.
  /// Each pass tries the exact path (Section IV-A; cost model t_q' in IV-B)
  /// at its first seed with hits and stops the read if it matches; else
  /// every hit becomes a candidate. One lookup per window serves both
  /// passes. A read that is exact on the reverse strand is resolved by its
  /// first and last windows' lookups alone when the fragment flags prove
  /// its forward pass would find nothing (core/exact_match.hpp).
  void align_seeds(bool exact_ok) {
    const std::size_t last = seeds_.size() - 1;
    // The reverse pass's exact try, when made ahead of the forward pass: its
    // first seed with hits is then the last window, so it reuses this.
    bool rc_tried = false;
    std::optional<ExactPlacement> rc_exact;
    if (exact_ok && looked_up(0).total[0] == 0) {
      const ReadSeed& s = with_rc(last);
      if (s.total[1] != 0) {
        const dht::SeedHit& h0 = hits_of(s, 1).front();
        rc_tried = true;
        rc_exact = try_exact(strand(true), h0, rc_offset(s));
        if (rc_exact && sh_.store.window_no_rc_seeds(
                            h0.fragment_id, rc_exact->t_begin,
                            read_->seq.size())) {
          count_truncation(s.total[1]);
          emit_exact(true, *rc_exact);
          return;
        }
      }
    }

    bool tried = false;
    for (std::size_t i = 0; i <= last; ++i) {
      const ReadSeed& s = looked_up(i);
      count_truncation(s.total[0]);
      if (s.total[0] == 0) continue;
      const auto hits = hits_of(s, 0);
      if (exact_ok && !tried) {
        tried = true;
        if (const auto pl = try_exact(strand(false), hits.front(), s.q_off)) {
          emit_exact(false, *pl);
          return;
        }
      }
      add_candidates(strand(false), hits, s.q_off);
    }

    // With no reverse-orientation hit anywhere the pass would make no slot.
    if (std::ranges::all_of(seeds_, [](const ReadSeed& s) {
          return s.rc_known && s.total[1] == 0;
        }))
      return;
    tried = false;
    for (std::size_t i = last + 1; i-- > 0;) {
      const ReadSeed& s = with_rc(i);
      count_truncation(s.total[1]);
      if (s.total[1] == 0) continue;
      const auto hits = hits_of(s, 1);
      if (exact_ok && !tried) {
        tried = true;
        const auto pl = rc_tried ? rc_exact
                                 : try_exact(strand(true), hits.front(),
                                             rc_offset(s));
        if (pl) {
          emit_exact(true, *pl);
          return;
        }
      }
      add_candidates(strand(true), hits, rc_offset(s));
    }
  }

  /// The exact path's try at seed hit `h0` of query offset `q_off`: the
  /// placement when the query matches the target there base for base.
  std::optional<ExactPlacement> try_exact(const Strand& q,
                                          const dht::SeedHit& h0,
                                          std::size_t q_off) {
    const Target& t = fetch_target_cached(h0.target_id);
    // The fragment's flags travel with the target fetch (one message).
    const Fragment& frag = sh_.store.fragment_unsync(h0.fragment_id);
    if (!frag.single_copy_seeds.load(std::memory_order_relaxed))
      return std::nullopt;
    const auto pl =
        exact_placement(h0, q_off, read_->seq.size(), t.seq.size());
    if (!pl) return std::nullopt;
    ++st_.memcmp_calls;
    if (!exact_compare(q.packed, t.seq, *pl)) return std::nullopt;
    return pl;
  }

  void emit_exact(bool reverse, const ExactPlacement& pl) {
    const std::size_t qlen = read_->seq.size();
    AlignmentRecord rec;
    rec.query_name = read_->name;
    rec.target_id = pl.target_id;
    rec.reverse = reverse;
    rec.score = sh_.cfg.extension.scoring.match * static_cast<int>(qlen);
    rec.q_begin = 0;
    rec.q_end = qlen;
    rec.t_begin = pl.t_begin;
    rec.t_end = pl.t_begin + qlen;
    rec.cigar = std::to_string(qlen) + "M";
    rec.exact = true;
    emit(std::move(rec));
    ++st_.exact_match_reads;
  }

  /// One extension per (target, diagonal) candidate of `hits`; nearby
  /// diagonals collapse so indels don't spawn duplicates.
  void add_candidates(Strand& q, std::span<const dht::SeedHit> hits,
                      std::size_t q_off) {
    const std::span<const std::uint8_t> query(q.codes);
    for (const dht::SeedHit& h : hits) {
      const std::int64_t diag = static_cast<std::int64_t>(h.t_pos) -
                                static_cast<std::int64_t>(q_off);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(h.target_id) << 33) |
          (static_cast<std::uint64_t>(q.reverse) << 32) |
          (static_cast<std::uint64_t>(diag + (1ll << 28)) >> 3);
      if (!seen_.insert(key).second) continue;
      const Target& t = fetch_target_cached(h.target_id);
      ++st_.sw_calls;
      if (t.seq.empty()) continue;
      const align::SeedWindow w = align::project_seed_window(
          query.size(), t.seq, q_off, h.t_pos, sh_.cfg.extension.window_pad);
      st_.sw_cells += static_cast<std::uint64_t>(w.end - w.begin) * query.size();
      if (w.begin >= w.end) continue;

      const std::size_t idx = slots_.size();
      Slot& s = slots_.emplace_back();
      s.read = read_;
      s.target_id = h.target_id;
      s.reverse = q.reverse;
      s.window_begin = w.begin;
      const auto window = align::dna_codes(t.seq, w.begin, w.end - w.begin);
      // Defer the alignment into the rank's length-class-bucketed queue; the
      // traced sweep resolves the slot when its bucket flushes. (The enqueue
      // may flush, so `s` is not touched after it.)
      if (!q.pooled_qid) q.pooled_qid = pool_.add_query(query);
      pool_.enqueue(*q.pooled_qid, window, idx);
    }
  }

  Strand& strand(bool reverse) {
    std::optional<Strand>& s = strands_[reverse ? 1 : 0];
    if (!s) {
      if (reverse)
        s.emplace(true, seq::reverse_complement(read_->seq));
      else
        s.emplace(false, read_->seq);
    }
    return *s;
  }

  [[nodiscard]] std::size_t rc_offset(const ReadSeed& s) const noexcept {
    return read_->seq.size() - static_cast<std::size_t>(sh_.k) - s.q_off;
  }

  [[nodiscard]] std::span<const dht::SeedHit> hits_of(const ReadSeed& s,
                                                      int side) const {
    const auto i = static_cast<std::size_t>(side);
    return std::span(hits_[i]).subspan(s.begin[i], s.count[i]);
  }

  void count_truncation(std::size_t total) {
    // The cache stores a seed's true index-wide total, so a truncated list
    // counts the same whether the node cache or the index served it — a
    // warm-started run must report cold-identical work stats.
    if (total > sh_.cfg.max_hits_per_seed) ++st_.hits_truncated;
  }

  /// Window i enters the prefetch horizon: hash it once, then start loading
  /// its index bucket and, when the node cache will see it first, its cache
  /// set (pipeline stage 1).
  void enter(std::size_t i) {
    ReadSeed& s = seeds_[i];
    if (s.probed) return;
    s.probed = true;
    s.probe = sh_.index.probe(s.seed);
    s.off_node = !rank_.topo().same_node(s.probe.owner, rank_.id());
    sh_.index.prefetch_bucket(s.probe);
    if (sh_.scache && s.off_node) {
      s.cache_hash = s.seed.fwd.mixed_hash();
      sh_.scache->prefetch(rank_.node(), s.cache_hash);
    }
  }

  /// Window i after its one lookup: the node cache serves side 0 when it
  /// holds seed.fwd; otherwise the index returns both sides in one message.
  /// Lookups resolve in the order they are asked for; while the scan over
  /// the windows looks up window i, windows up to i + kBucketAhead enter the
  /// horizon, and window i + kRunAhead (SeedIndex's pipeline distances),
  /// whose bucket has landed by then, has its run head fetched (stage 2).
  /// Windows asked for out of scan order (the exact path's last window)
  /// only enter.
  ReadSeed& looked_up(std::size_t i) {
    ReadSeed& s = seeds_[i];
    if (s.looked_up) return s;
    s.looked_up = true;
    if (i < horizon_) {
      using dht::SeedIndex;
      const std::size_t stop =
          std::min(i + SeedIndex::kBucketAhead + 1, seeds_.size());
      for (; horizon_ < stop; ++horizon_) enter(horizon_);
      if (i + SeedIndex::kRunAhead < seeds_.size())
        sh_.index.prefetch_run(seeds_[i + SeedIndex::kRunAhead].probe);
    } else {
      enter(i);
    }
    ++st_.seed_lookups;
    const std::size_t max_hits = sh_.cfg.max_hits_per_seed;
    scratch_.clear();
    if (sh_.scache && s.off_node &&
        sh_.scache->lookup(rank_.node(), s.seed.fwd, s.cache_hash, max_hits,
                           scratch_, s.total[0])) {
      ++st_.seed_cache_hits;
    } else {
      const double t0 = rank_.stats().comm_time_s;
      s.begin[1] = static_cast<std::uint32_t>(hits_[1].size());
      s.total = sh_.index.lookup(rank_, s.seed, s.probe, max_hits, scratch_,
                                 &hits_[1]);
      s.count[1] = static_cast<std::uint32_t>(hits_[1].size() - s.begin[1]);
      s.rc_known = true;
      st_.comm_lookup_s += rank_.stats().comm_time_s - t0;
      if (sh_.scache && s.off_node)
        sh_.scache->insert(rank_.node(), s.seed.fwd, s.cache_hash, scratch_,
                           s.total[0]);
    }
    keep(s, 0);
    return s;
  }

  /// Window i with side 1 known: after a node-cache hit on seed.fwd, seed.rc
  /// takes a probe of its own, through the cache as well. It is part of the
  /// window's one lookup in PipelineStats, so the counters do not depend on
  /// what the cache held.
  ReadSeed& with_rc(std::size_t i) {
    ReadSeed& s = looked_up(i);
    if (s.rc_known) return s;
    s.rc_known = true;
    const std::size_t max_hits = sh_.cfg.max_hits_per_seed;
    scratch_.clear();
    const std::uint64_t hash = s.seed.rc.mixed_hash();
    if (!sh_.scache->lookup(rank_.node(), s.seed.rc, hash, max_hits, scratch_,
                            s.total[1])) {
      // seed.rc has seed.fwd's canonical form, so it has its probe too.
      const double t0 = rank_.stats().comm_time_s;
      s.total[1] = sh_.index.lookup(rank_, {s.seed.rc, s.seed.fwd}, s.probe,
                                    max_hits, scratch_, nullptr)[0];
      st_.comm_lookup_s += rank_.stats().comm_time_s - t0;
      sh_.scache->insert(rank_.node(), s.seed.rc, hash, scratch_, s.total[1]);
    }
    keep(s, 1);
    return s;
  }

  /// Move scratch_, the hits just fetched for side `side` of s, to hits_.
  void keep(ReadSeed& s, int side) {
    auto& to = hits_[static_cast<std::size_t>(side)];
    s.begin[static_cast<std::size_t>(side)] = static_cast<std::uint32_t>(to.size());
    s.count[static_cast<std::size_t>(side)] = static_cast<std::uint32_t>(scratch_.size());
    to.insert(to.end(), scratch_.begin(), scratch_.end());
  }

  const Target& fetch_target_cached(std::uint32_t gid) {
    ++st_.target_fetches;
    const Target& t = sh_.store.target_unsync(gid);
    const int owner = sh_.store.owner_of_target(gid);
    if (owner == rank_.id()) return t;
    const bool off_node = !rank_.topo().same_node(owner, rank_.id());
    const int my_node = rank_.node();
    if (sh_.tcache && off_node && sh_.tcache->contains(my_node, gid)) {
      ++st_.target_cache_hits;
      return t;
    }
    const double t0 = rank_.stats().comm_time_s;
    rank_.charge_access(owner, t.seq.packed_bytes());
    st_.comm_fetch_s += rank_.stats().comm_time_s - t0;
    if (sh_.tcache && off_node)
      sh_.tcache->insert(my_node, gid, t.seq.packed_bytes());
    return t;
  }

  /// A record produced without a kernel (the exact-match fast path) takes a
  /// born-resolved slot, so it interleaves with candidates in discovery order.
  void emit(AlignmentRecord rec) {
    Slot& s = slots_.emplace_back();
    s.state = Slot::State::kResolved;
    s.read = read_;
    s.rec = std::move(rec);
  }

  /// Resolve a candidate's slot with its window-local alignment; the one
  /// place an AlignmentRecord is filled from a LocalAlignment, shifted by the
  /// slot's window_begin into target coordinates.
  void resolve(Slot& s, const align::LocalAlignment& aln) {
    s.state = Slot::State::kResolved;
    if (aln.score < min_score_ || aln.empty()) return;
    AlignmentRecord& rec = s.rec.emplace();
    rec.query_name = s.read->name;
    rec.target_id = s.target_id;
    rec.reverse = s.reverse;
    rec.score = aln.score;
    rec.q_begin = aln.q_begin;
    rec.q_end = aln.q_end;
    rec.t_begin = aln.t_begin + s.window_begin;
    rec.t_end = aln.t_end + s.window_begin;
    rec.cigar = aln.cigar.to_string();
    rec.mismatches = aln.mismatches;
  }

  /// Emit the resolved prefix of the emission log — the only place records
  /// reach the sink and alignments_reported/reads_aligned are counted.
  void advance_cursor() {
    while (cursor_ < slots_.size()) {
      Slot& s = slots_[cursor_];
      if (s.state == Slot::State::kPending) break;
      if (s.state == Slot::State::kReadEnd) {
        if (cursor_records_ > 0) ++st_.reads_aligned;
        cursor_records_ = 0;
      } else if (s.rec) {
        ++cursor_records_;
        ++st_.alignments_reported;
        sh_.sink.emit(rank_.id(), *s.read, std::move(*s.rec));
      }
      ++cursor_;
    }
    // Fully replayed: drop the log (pointers into reads/targets with it).
    if (cursor_ == slots_.size()) {
      slots_.clear();
      cursor_ = 0;
    }
  }

  pgas::Rank& rank_;
  BatchShared& sh_;
  PipelineStats& st_;
  const seq::SeqRecord* read_ = nullptr;
  std::vector<ReadSeed> seeds_;                   ///< the read's valid windows
  std::size_t horizon_ = 0;  ///< windows below it (in scan order) entered
  std::array<std::vector<dht::SeedHit>, 2> hits_;  ///< per side, all windows
  std::vector<dht::SeedHit> scratch_;             ///< one side of one lookup
  std::array<std::optional<Strand>, 2> strands_;  ///< forward, reverse
  std::unordered_set<std::uint64_t> seen_;
  int min_score_;
  align::PooledExtensionQueue pool_;
  std::vector<Slot> slots_;         ///< emission log
  std::size_t cursor_ = 0;          ///< first unreplayed slot
  std::size_t cursor_records_ = 0;  ///< replayed records since last kReadEnd
};

/// The per-batch SPMD body: io.reads + align against the prebuilt index.
void batch_rank_body(pgas::Rank& rank, BatchShared& sh) {
  const auto me = static_cast<std::size_t>(rank.id());
  const int nranks = rank.nranks();

  // ---- io.reads ------------------------------------------------------------
  // The rank's block of the batch.
  rank.phase("io.reads");
  const std::size_t n = sh.reads.size();
  const std::size_t lo = n * me / static_cast<std::size_t>(nranks);
  const std::size_t hi = n * (me + 1) / static_cast<std::size_t>(nranks);
  const std::span<const seq::SeqRecord> myreads = sh.reads.subspan(lo, hi - lo);

  // ---- align ---------------------------------------------------------------
  rank.phase("align");
  RankAligner aligner(rank, sh);
  for (const seq::SeqRecord& r : myreads) aligner.align_read(r);
  // Forced drain: score and replay every candidate the pooled queue still
  // holds, before the barrier.
  aligner.finish();
  rank.barrier();
}

/// Bridge one batch's results into the global metrics registry, once per
/// batch, so the per-read path never pays a registry lookup: the counters
/// the daemon's per-tenant series repeat, then the align phase's GCUPS and
/// the engine's lane occupancy, which only the session's series carry.
void add_batch_metrics(const BatchResult& res, const SessionConfig& cfg) {
  add_batch_counters(res.report, res.stats, res.seed_cache, res.target_cache,
                     cfg.extension);
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels sw_labels = align::sw_metric_labels(cfg.extension);
  // Aggregate throughput of this batch's align phase: summed cells over the
  // phase's simulated parallel time (the paper's GCUPS axis).
  const double align_s = res.report.time_of("align");
  if (align_s > 0.0)
    reg.gauge("mera_sw_gcups", sw_labels,
              "Giga DP cells per second in the last batch's align phase")
        .set(static_cast<double>(res.stats.sw_cells) / 1e9 / align_s);

  // Lane occupancy of the inter-candidate engine: how full its SIMD sweeps
  // ran.
  const align::LaneStats& ls = res.lane_stats;
  reg.counter("mera_sw_lanes_filled_total", sw_labels,
              "SIMD lanes carrying a live candidate in batch SW sweeps")
      .add(static_cast<double>(ls.lanes_filled));
  reg.counter("mera_sw_lanes_wasted_total", sw_labels,
              "Idle SIMD lanes in batch SW sweeps")
      .add(static_cast<double>(ls.lanes_wasted));
  reg.counter("mera_sw_flushes_total", sw_labels,
              "Batch SW flushes that scored at least one candidate")
      .add(static_cast<double>(ls.flushes));
  auto& occ = reg.histogram(
      "mera_sw_lane_occupancy",
      {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0},
      sw_labels, "Per-sweep SIMD lane occupancy (filled / width)");
  for (std::size_t i = 0; i < align::LaneStats::kOccBuckets; ++i)
    occ.observe_n((static_cast<double>(i) + 1.0) /
                      static_cast<double>(align::LaneStats::kOccBuckets),
                  ls.occupancy[i]);
}

}  // namespace

void add_batch_counters(const pgas::PhaseReport& report,
                        const PipelineStats& stats,
                        const cache::CacheCounters& seed_cache,
                        const cache::CacheCounters& target_cache,
                        const align::ExtensionConfig& extension,
                        const obs::Labels& extra) {
  auto& reg = obs::MetricsRegistry::global();
  pgas::add_to_metrics(report, extra);
  const auto with_extra = [&extra](obs::Labels labels) {
    labels.insert(labels.end(), extra.begin(), extra.end());
    return labels;
  };

  reg.counter("mera_reads_processed_total", extra, "Reads pushed through align")
      .add(static_cast<double>(stats.reads_processed));
  reg.counter("mera_alignments_reported_total", extra,
              "Alignment records emitted")
      .add(static_cast<double>(stats.alignments_reported));

  const auto bridge_cache = [&](const char* which,
                                const cache::CacheCounters& c) {
    const obs::Labels labels = with_extra({{"cache", which}});
    reg.counter("mera_cache_hits_total", labels, "Cache lookup hits")
        .add(static_cast<double>(c.hits));
    reg.counter("mera_cache_misses_total", labels, "Cache lookup misses")
        .add(static_cast<double>(c.misses));
    reg.counter("mera_cache_evictions_total", labels, "Cache entries evicted")
        .add(static_cast<double>(c.evictions));
    reg.counter("mera_cache_admission_rejects_total", labels,
                "Inserts refused by the admission policy")
        .add(static_cast<double>(c.admission_rejects));
  };
  bridge_cache("seed", seed_cache);
  bridge_cache("target", target_cache);

  const obs::Labels sw_labels = with_extra(align::sw_metric_labels(extension));
  reg.counter("mera_sw_calls_total", sw_labels,
              "Smith-Waterman extensions run")
      .add(static_cast<double>(stats.sw_calls));
  reg.counter("mera_sw_cells_total", sw_labels, "DP cells scored")
      .add(static_cast<double>(stats.sw_cells));
}

AlignSession::AlignSession(IndexedReference ref, SessionConfig cfg)
    : ref_(std::move(ref)),
      cfg_(std::move(cfg)),
      trace_scratch_(static_cast<std::size_t>(ref_.topology().nranks())) {
  if (cfg_.max_hits_per_seed == 0)
    throw std::invalid_argument(
        "AlignSession: max_hits_per_seed must be at least 1");
  const pgas::Topology& topo = ref_.topology();
  if (cfg_.seed_cache)
    scache_.emplace(topo,
                    cache::SeedIndexCache::Options{cfg_.seed_cache_capacity,
                                                   cfg_.cache_admission});
  if (cfg_.target_cache)
    tcache_.emplace(topo,
                    cache::TargetCache::Options{cfg_.target_cache_bytes,
                                                cfg_.cache_admission});
}

BatchResult AlignSession::align_batch(pgas::Runtime& rt,
                                      const std::vector<seq::SeqRecord>& reads,
                                      AlignmentSink& sink) {
  std::span<const seq::SeqRecord> span = reads;
  std::vector<seq::SeqRecord> permuted;
  if (cfg_.permute_queries) {
    permuted = reads;
    permute_queries(permuted, cfg_.permute_seed);
    span = permuted;
  }
  return run_batch(rt, span, sink);
}

BatchResult AlignSession::align_batch(pgas::Runtime& rt,
                                      std::vector<seq::SeqRecord>&& reads,
                                      AlignmentSink& sink) {
  if (cfg_.permute_queries) permute_queries(reads, cfg_.permute_seed);
  return run_batch(rt, reads, sink);
}

FileStreamResult AlignSession::align_batch_files(
    pgas::Runtime& rt, const std::vector<std::string>& paths,
    AlignmentSink& sink, const FileStreamOptions& opt,
    const std::function<void(std::size_t, const BatchResult&)>& on_batch) {
  return detail::stream_file_batches<FileStreamResult>(
      paths, opt,
      [&](std::vector<seq::SeqRecord>&& records) {
        return align_batch(rt, std::move(records), sink);
      },
      [&](std::size_t i, const BatchResult& batch) {
        if (on_batch) on_batch(i, batch);
      });
}

BatchResult AlignSession::run_batch(pgas::Runtime& rt,
                                    std::span<const seq::SeqRecord> reads,
                                    AlignmentSink& sink) {
  const obs::Span span("session.batch", "session");
  const pgas::Topology& built_on = ref_.topology();
  if (rt.topo().nranks() != built_on.nranks() ||
      rt.topo().ppn() != built_on.ppn())
    throw std::invalid_argument(
        "AlignSession: runtime topology does not match the one the "
        "IndexedReference was built on");

  BatchShared sh{
      cfg_,
      ref_.targets(),
      ref_.index(),
      ref_.config().k,
      cfg_.exact_match && ref_.exact_match_marked(),
      scache_ ? &*scache_ : nullptr,
      tcache_ ? &*tcache_ : nullptr,
      sink,
      std::vector<PipelineStats>(static_cast<std::size_t>(rt.nranks())),
      std::vector<align::LaneStats>(static_cast<std::size_t>(rt.nranks())),
      trace_scratch_,
      reads,
  };
  rt.run([&sh](pgas::Rank& rank) { batch_rank_body(rank, sh); });
  {
    const obs::Span flush_span("session.sink_flush", "session");
    sink.batch_end();
  }

  BatchResult res;
  res.report = rt.report();
  res.per_rank = std::move(sh.stats);
  for (const auto& s : res.per_rank) res.stats += s;
  for (const auto& ls : sh.lane_stats) res.lane_stats += ls;
  if (scache_) {
    const auto now = scache_->counters();
    res.seed_cache = now - seed_base_;
    seed_base_ = now;
  }
  if (tcache_) {
    const auto now = tcache_->counters();
    res.target_cache = now - target_base_;
    target_base_ = now;
  }
  ++batches_done_;
  add_batch_metrics(res, cfg_);
  return res;
}

void AlignSession::save_caches(const pgas::Runtime& rt,
                               const std::string& path) const {
  cache::save_caches(path, snapshot_meta(rt), scache_ ? &*scache_ : nullptr,
                     tcache_ ? &*tcache_ : nullptr);
}

void AlignSession::load_caches(const pgas::Runtime& rt,
                               const std::string& path) {
  // Re-seed the per-batch delta baseline afterwards — even on a failed load,
  // which may have replaced counters before throwing: the loaded counters
  // are imported history, not this session's activity, so the next
  // BatchResult must report post-load work only (see the header contract).
  const auto reseed = [this] {
    if (scache_) seed_base_ = scache_->counters();
    if (tcache_) target_base_ = tcache_->counters();
  };
  try {
    cache::load_caches(path, snapshot_meta(rt), scache_ ? &*scache_ : nullptr,
                       tcache_ ? &*tcache_ : nullptr);
  } catch (...) {
    reseed();
    throw;
  }
  reseed();
}

cache::SnapshotMeta AlignSession::snapshot_meta(const pgas::Runtime& rt) const {
  cache::SnapshotMeta meta;
  meta.k = ref_.config().k;
  meta.nranks = ref_.topology().nranks();
  meta.ppn = ref_.topology().ppn();
  meta.nnodes = ref_.topology().nnodes();
  meta.max_hits_per_seed = cfg_.max_hits_per_seed;
  meta.cost_model = rt.cost_model();
  meta.reference_fingerprint = ref_.fingerprint();
  return meta;
}

cache::CacheCounters AlignSession::seed_cache_counters() const {
  return scache_ ? scache_->counters() : cache::CacheCounters{};
}

cache::CacheCounters AlignSession::target_cache_counters() const {
  return tcache_ ? tcache_->counters() : cache::CacheCounters{};
}

}  // namespace mera::core
