#include "layers.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "align/extension.hpp"
#include "align/smith_waterman.hpp"
#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/load_balance.hpp"
#include "obs/trace.hpp"
#include "seq/dna.hpp"
#include "seq/fastq.hpp"
#include "seq/kmer.hpp"
#include "serve/framing.hpp"

namespace e2e {

namespace core = mera::core;
namespace seq = mera::seq;

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits{
      {"seq.parse_s", "s"},
      {"seq.parse_mb_per_s", "MB/s"},
      {"exec.prefetch_load_s", "s"},
      {"exec.prefetch_stall_s", "s"},
      {"core.permute_s", "s"},
      {"core.exact_frac", "ratio"},
      {"pgas.team_start_us", "us"},
      {"pgas.runs_per_batch", "count"},
      {"pgas.align_phase_wall_s", "s"},
      {"pgas.align_rank_imbalance", "ratio"},
      {"pgas.align_model_s", "s"},
      {"dht.lookups_per_read", "count"},
      {"dht.truncated_frac", "ratio"},
      {"dht.lookup_ns", "ns"},
      {"dht.hit_frac", "ratio"},
      {"cache.seed_hit_rate", "ratio"},
      {"cache.seed_evictions", "count"},
      {"cache.target_hit_rate", "ratio"},
      {"cache.seed_op_ns", "ns"},
      {"cache.target_op_ns", "ns"},
      {"align.sw_calls_per_read", "count"},
      {"align.sw_cells_per_read", "count"},
      {"align.screen_gcups", "GCUPS"},
      {"align.traceback_gcups", "GCUPS"},
      {"align.survivor_frac", "ratio"},
      {"shard.outside_s", "s"},
      {"shard.imbalance", "ratio"},
      {"shard.parallelism", "count"},
      {"sam.format_s", "s"},
      {"sam.mb_per_s", "MB/s"},
      {"sam.bytes_per_read", "B"},
      {"serve.frame_rtt_us", "us"},
      {"serve.gate_wait_ms", "ms"},
      {"serve.backend_batch_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kUnits;
}

// ---- counters of the traced passes -----------------------------------------

void PathTally::add_run(const mera::cache::CacheCounters& seed,
                        const mera::cache::CacheCounters& target,
                        const mera::pgas::PhaseReport& report) {
  seed_cache.hits += seed.hits;
  seed_cache.misses += seed.misses;
  seed_cache.evictions += seed.evictions;
  target_cache.hits += target.hits;
  target_cache.misses += target.misses;
  align_model_s += report.time_of("align");
  ++runs;
}

void PathTally::add(const core::BatchResult& b) {
  stats += b.stats;
  add_run(b.seed_cache, b.target_cache, b.report);
  ++batches;
}

void PathTally::add(const mera::shard::ShardedBatchResult& b) {
  // b.stats already sums work over shards and counts each read once.
  stats += b.stats;
  for (const auto& s : b.per_shard) add_run(s.seed_cache, s.target_cache, s.report);
  ++batches;
  const double slowest =
      b.shard_wall_s.empty()
          ? 0.0
          : *std::max_element(b.shard_wall_s.begin(), b.shard_wall_s.end());
  shard_outside_s += b.wall_s - slowest;
  shard_imbalance.push_back(b.imbalance_measured());
  shard_parallelism = std::max(shard_parallelism, b.shard_parallelism);
}

void PathTally::add(const mera::serve::BatchSummary& b) {
  stats += b.stats;
  add_run(b.seed_cache, b.target_cache, b.report);
  ++batches;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_path_metrics(const PathTally& t, const ServeTally& serve,
                      const std::vector<TraceEvent>& events,
                      double overhead_frac, MetricTable& out) {
  const double passes = static_cast<double>(std::max<std::size_t>(1, t.passes));
  const auto& s = t.stats;
  const auto reads = static_cast<double>(s.reads_processed);

  // phase:align spans (one per rank per Runtime::run) grouped by the
  // bench.batch span that contains them: a batch's align phase takes as
  // long as its slowest rank.
  double align_wall = 0.0;
  std::vector<double> imbalance;
  for (const TraceEvent& b : events) {
    if (b.cat != "bench" || b.name != "bench.batch") continue;
    double mx = 0.0, total = 0.0;
    std::size_t n = 0;
    for (const TraceEvent& e : events) {
      if (e.name != "phase:align" || e.ts_us < b.ts_us ||
          e.ts_us + e.dur_us > b.ts_us + b.dur_us)
        continue;
      const double d = static_cast<double>(e.dur_us) * 1e-6;
      mx = std::max(mx, d);
      total += d;
      ++n;
    }
    if (n == 0) continue;
    align_wall += mx;
    if (total > 0.0) imbalance.push_back(mx / (total / static_cast<double>(n)));
  }

  out.add("exec.prefetch_load_s", t.load_s / passes, "s");
  out.add("exec.prefetch_stall_s", t.stall_s / passes, "s");
  out.add("core.exact_frac", ratio(static_cast<double>(s.exact_match_reads), reads),
          "ratio");
  out.add("pgas.runs_per_batch",
          ratio(static_cast<double>(t.runs), static_cast<double>(t.batches)),
          "count");
  out.add("pgas.align_phase_wall_s", align_wall / passes, "s");
  out.add("pgas.align_rank_imbalance", median(imbalance), "ratio");
  out.add("pgas.align_model_s", t.align_model_s / passes, "s");
  out.add("dht.lookups_per_read", ratio(static_cast<double>(s.seed_lookups), reads),
          "count");
  out.add("dht.truncated_frac",
          ratio(static_cast<double>(s.hits_truncated),
                static_cast<double>(s.seed_lookups)),
          "ratio");
  out.add("cache.seed_hit_rate", t.seed_cache.hit_rate(), "ratio");
  out.add("cache.seed_evictions",
          static_cast<double>(t.seed_cache.evictions) / passes, "count");
  out.add("cache.target_hit_rate", t.target_cache.hit_rate(), "ratio");
  out.add("align.sw_calls_per_read", ratio(static_cast<double>(s.sw_calls), reads),
          "count");
  out.add("align.sw_cells_per_read", ratio(static_cast<double>(s.sw_cells), reads),
          "count");
  out.add("shard.outside_s", t.shard_outside_s / passes, "s");
  out.add("shard.imbalance", median(t.shard_imbalance), "ratio");
  out.add("shard.parallelism", t.shard_parallelism, "count");
  out.add("serve.gate_wait_ms", serve.gate_wait_ms, "ms");
  out.add("serve.backend_batch_ms", serve.backend_batch_ms, "ms");
  out.add("obs.trace_overhead_frac", overhead_frac, "ratio");
}

double trace_overhead(const std::vector<double>& untraced_s,
                      const std::vector<double>& traced_s) {
  const auto best = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  return ratio(best(traced_s), best(untraced_s)) - 1.0;
}

std::vector<TraceEvent> finish_trace(const std::string& path) {
  auto& tracer = mera::obs::Tracer::global();
  tracer.disable();
  std::ostringstream trace;
  tracer.write_chrome_trace(trace);
  std::ofstream f(path);
  f << trace.str();
  f.flush();
  if (!f) throw std::runtime_error("cannot write " + path);
  auto events = parse_chrome_trace(trace.str());
  for (const auto& [name, t] : bench_span_totals(events))
    std::fprintf(stderr, "span %-26s n=%-5zu total %9.4f s  self %9.4f s\n",
                 name.c_str(), t.count, t.total_s, t.self_s);
  return events;
}

// ---- layer replays ----------------------------------------------------------

namespace {

constexpr std::size_t kSampleReads = 2000;
constexpr std::size_t kMaxCandidates = 2000;
constexpr int kTeamStarts = 200;
constexpr int kFrameRoundTrips = 100;
constexpr int kNode = 0;  ///< cache replays run as one node's traffic

/// An evenly spaced sample of the workload's reads (the input is grouped by
/// genome position, so a prefix would cover only the start of the genome),
/// every seed of it on both strands, and what the index returns for each.
struct Sample {
  struct Probe {
    std::size_t read = 0;
    bool reverse = false;
    std::size_t q_off = 0;
    seq::Kmer kmer;
  };
  std::vector<seq::SeqRecord> reads;
  std::vector<std::string> rc;  ///< reverse complement per read
  std::vector<Probe> probes;
  std::vector<std::vector<mera::dht::SeedHit>> hits;  ///< per probe
  std::vector<std::size_t> totals;                     ///< per probe

  Sample(std::span<const seq::SeqRecord> all, int k) {
    const std::size_t n = std::min(kSampleReads, all.size());
    for (std::size_t i = 0; i < n; ++i) reads.push_back(all[i * all.size() / n]);
    for (std::size_t r = 0; r < reads.size(); ++r) {
      rc.push_back(seq::reverse_complement(reads[r].seq));
      for (const bool rev : {false, true})
        seq::for_each_seed(std::string_view(rev ? rc[r] : reads[r].seq), k,
                           [&](std::size_t off, const seq::Kmer& m) {
                             probes.push_back({r, rev, off, m});
                           });
    }
    hits.resize(probes.size());
    totals.resize(probes.size());
  }
  [[nodiscard]] std::string_view oriented(const Probe& p) const {
    return p.reverse ? rc[p.read] : reads[p.read].seq;
  }
};

/// Everything a replay needs: the reference, its session config, and one
/// runtime on the reference's topology.
struct Ctx {
  const core::IndexedReference& ref;
  const core::SessionConfig& cfg;
  mera::pgas::Runtime& rt;
  MetricTable& out;
};

/// seq: parse every batch of one pass, as the loader would; returns the
/// parsed batches and their mean size in bytes.
std::vector<std::vector<seq::SeqRecord>> replay_parse(const ReplayInputs& in, Ctx& c,
                                                      double& batch_bytes) {
  const mera::obs::Span span("replay.seq.parse", "bench");
  std::vector<std::vector<seq::SeqRecord>> batches;
  double secs = 0.0, bytes = 0.0;
  const auto timed = [&](auto&& parse) {
    const double t0 = now_s();
    batches.push_back(parse());
    secs += now_s() - t0;
  };
  for (const std::string& f : in.batch_files) {
    bytes += static_cast<double>(std::filesystem::file_size(f));
    timed([&] { return core::load_read_batch(f); });
  }
  for (const std::string& p : in.payloads) {
    bytes += static_cast<double>(p.size());
    timed([&] { return seq::parse_fastq(p); });
  }
  c.out.add("seq.parse_s", secs, "s");
  c.out.add("seq.parse_mb_per_s", ratio(bytes / 1e6, secs), "MB/s");
  batch_bytes = ratio(bytes, static_cast<double>(batches.size()));
  return batches;
}

/// core: the Section IV-B permutation of each batch vector.
void replay_permute(const std::vector<std::vector<seq::SeqRecord>>& batches, Ctx& c) {
  const mera::obs::Span span("replay.core.permute", "bench");
  double secs = 0.0;
  for (const auto& b : batches) {
    auto copy = b;
    const double t0 = now_s();
    core::permute_queries(copy, c.cfg.permute_seed);
    secs += now_s() - t0;
  }
  c.out.add("core.permute_s", secs, "s");
}

/// pgas: team start-up of an empty two-phase SPMD body.
void replay_team_start(Ctx& c) {
  const mera::obs::Span span("replay.pgas.team_start", "bench");
  std::vector<double> us;
  for (int i = 0; i < kTeamStarts; ++i) {
    const double t0 = now_s();
    c.rt.run([](mera::pgas::Rank& r) {
      r.phase("a");
      r.phase("b");
    });
    us.push_back((now_s() - t0) * 1e6);
  }
  c.out.add("pgas.team_start_us", median(us), "us");
}

/// dht: every probe through SeedIndex::lookup, ranks splitting the probes.
/// A second, untimed sweep keeps the hits for the cache and align replays.
void replay_lookup(Sample& s, Ctx& c) {
  const mera::obs::Span span("replay.dht.lookup", "bench");
  std::vector<double> rank_s(static_cast<std::size_t>(c.rt.nranks()));
  c.rt.run([&](mera::pgas::Rank& rank) {
    const std::size_t n = s.probes.size(), nr = static_cast<std::size_t>(rank.nranks());
    const auto me = static_cast<std::size_t>(rank.id());
    const std::size_t lo = n * me / nr, hi = n * (me + 1) / nr;
    const auto& index = c.ref.index();
    std::vector<mera::dht::SeedHit> h;
    const double t0 = now_s();
    for (std::size_t i = lo; i < hi; ++i) {
      h.clear();
      s.totals[i] = index.lookup(rank, s.probes[i].kmer, c.cfg.max_hits_per_seed, h);
    }
    rank_s[me] = now_s() - t0;
    for (std::size_t i = lo; i < hi; ++i)
      (void)index.lookup(rank, s.probes[i].kmer, c.cfg.max_hits_per_seed, s.hits[i]);
  });
  const auto found = std::count_if(s.totals.begin(), s.totals.end(),
                                   [](std::size_t t) { return t > 0; });
  const auto n = static_cast<double>(s.probes.size());
  c.out.add("dht.lookup_ns", ratio(sum(rank_s) * 1e9, n), "ns");
  c.out.add("dht.hit_frac", ratio(static_cast<double>(found), n), "ratio");
}

/// cache: seed-cache lookup-or-insert per probe, and every hit's target
/// fetched through the target cache.
void replay_caches(const Sample& s, Ctx& c) {
  {
    const mera::obs::Span span("replay.cache.seed", "bench");
    mera::cache::SeedIndexCache sc(
        c.ref.topology(),
        mera::cache::SeedIndexCache::Options{c.cfg.seed_cache_capacity, c.cfg.cache_admission});
    std::vector<mera::dht::SeedHit> h;
    std::size_t total = 0;
    double ops = 0.0;
    const double t0 = now_s();
    for (std::size_t i = 0; i < s.probes.size(); ++i) {
      h.clear();
      ++ops;
      if (!sc.lookup(kNode, s.probes[i].kmer, c.cfg.max_hits_per_seed, h, total)) {
        sc.insert(kNode, s.probes[i].kmer, s.hits[i], s.totals[i]);
        ++ops;
      }
    }
    c.out.add("cache.seed_op_ns", ratio((now_s() - t0) * 1e9, ops), "ns");
  }
  const mera::obs::Span span("replay.cache.target", "bench");
  mera::cache::TargetCache tc(
      c.ref.topology(),
      mera::cache::TargetCache::Options{c.cfg.target_cache_bytes, c.cfg.cache_admission});
  double ops = 0.0, secs = 0.0;
  c.rt.run([&](mera::pgas::Rank& rank) {
    if (rank.id() != 0) return;  // fetch_target needs a rank to charge
    const double t0 = now_s();
    for (const auto& hs : s.hits)
      for (const auto& hit : hs) {
        ++ops;
        if (!tc.contains(kNode, hit.target_id)) {
          const auto& t = c.ref.targets().fetch_target(rank, hit.target_id);
          tc.insert(kNode, hit.target_id, t.seq.packed_bytes());
          ++ops;
        }
      }
    secs = now_s() - t0;
  });
  c.out.add("cache.target_op_ns", ratio(secs * 1e9, ops), "ns");
}

/// align: the sample's candidate windows (one per target diagonal, deduped
/// per strand as the session does) screened by the batch engine at the
/// resolved ISA, then traced back by the full DP.
void replay_align(const Sample& s, Ctx& c) {
  struct Candidate {
    const std::vector<std::uint8_t>* query;
    std::vector<std::uint8_t> window;
  };
  std::vector<std::vector<std::uint8_t>> qcodes(2 * s.reads.size());  // per strand
  std::vector<Candidate> cands;
  std::unordered_set<std::uint64_t> seen;
  std::size_t last_strand = SIZE_MAX;
  for (std::size_t i = 0; i < s.probes.size() && cands.size() < kMaxCandidates; ++i) {
    const auto& p = s.probes[i];
    const std::size_t strand = 2 * p.read + (p.reverse ? 1 : 0);
    if (strand != last_strand) seen.clear();
    last_strand = strand;
    auto& q = qcodes[strand];
    if (q.empty()) q = mera::align::dna_codes(s.oriented(p));
    for (const auto& h : s.hits[i]) {
      const auto diag = static_cast<std::int64_t>(h.t_pos) - static_cast<std::int64_t>(p.q_off);
      const std::uint64_t key = (static_cast<std::uint64_t>(h.target_id) << 32) |
                                (static_cast<std::uint64_t>(diag + (1ll << 28)) >> 3);
      if (!seen.insert(key).second) continue;
      const auto& t = c.ref.targets().target_unsync(h.target_id);
      const auto w = mera::align::project_seed_window(q.size(), t.seq, p.q_off, h.t_pos,
                                                      c.cfg.extension.window_pad);
      if (w.begin < w.end)
        cands.push_back({&q, mera::align::dna_codes(t.seq, w.begin, w.end - w.begin)});
    }
  }
  double cells = 0.0;
  for (const auto& cand : cands)
    cells += static_cast<double>(cand.window.size() * cand.query->size());
  const auto& sc = c.cfg.extension.scoring;
  const int min_score =
      c.cfg.min_report_score >= 0 ? c.cfg.min_report_score : sc.match * c.ref.config().k;

  double screen_s = 0.0, survivors = 0.0;
  {
    const mera::obs::Span span("replay.align.screen", "bench");
    mera::align::BatchSwScorer scorer(sc, c.cfg.extension.isa);
    const double t0 = now_s();
    for (const auto& cand : cands) scorer.add(scorer.add_query(*cand.query), cand.window);
    const auto res = scorer.flush();
    screen_s = now_s() - t0;
    for (const auto& r : res) survivors += r.score >= min_score ? 1.0 : 0.0;
  }
  double traceback_s = 0.0;
  {
    const mera::obs::Span span("replay.align.traceback", "bench");
    long long score_sum = 0;  // consumed below so the DP cannot be elided
    const double t0 = now_s();
    for (const auto& cand : cands)
      score_sum += mera::align::smith_waterman(*cand.query, cand.window, sc).score;
    traceback_s = now_s() - t0;
    if (score_sum < 0) throw std::logic_error("negative Smith-Waterman score");
  }
  c.out.add("align.screen_gcups", ratio(cells / 1e9, screen_s), "GCUPS");
  c.out.add("align.traceback_gcups", ratio(cells / 1e9, traceback_s), "GCUPS");
  c.out.add("align.survivor_frac", ratio(survivors, static_cast<double>(cands.size())),
            "ratio");
}

/// sam: the sample's records pushed back through SamStreamSink into memory;
/// returns SAM bytes per read.
double replay_sam(const Sample& s, Ctx& c) {
  core::AlignSession session(c.ref, c.cfg);
  core::VectorSink collect(c.rt.nranks());
  (void)session.align_batch(c.rt, s.reads, collect);
  auto recs = collect.take();
  std::unordered_map<std::string_view, const seq::SeqRecord*> by_name;
  for (const auto& r : s.reads) by_name.emplace(r.name, &r);
  std::ostringstream os;
  core::SamStreamSink sink(os, core::sam_targets(c.ref.targets()), c.rt.nranks());
  const mera::obs::Span span("replay.sam.format", "bench");
  const double t0 = now_s();
  for (auto& rec : recs) {
    const seq::SeqRecord& read = *by_name.at(rec.query_name);
    sink.emit(0, read, std::move(rec));
  }
  sink.batch_end();
  const double secs = now_s() - t0;
  const auto bytes = static_cast<double>(os.tellp());
  const double per_read = ratio(bytes, static_cast<double>(s.reads.size()));
  c.out.add("sam.format_s", secs, "s");
  c.out.add("sam.mb_per_s", ratio(bytes / 1e6, secs), "MB/s");
  c.out.add("sam.bytes_per_read", per_read, "B");
  return per_read;
}

/// Closes both ends and joins the echo thread even when a frame write throws.
struct EchoPair {
  int fd[2] = {-1, -1};
  std::thread echo;
  ~EchoPair() {
    if (fd[0] >= 0) ::shutdown(fd[0], SHUT_RDWR);
    if (echo.joinable()) echo.join();
    for (const int f : fd)
      if (f >= 0) ::close(f);
  }
};

/// serve: one Batch frame out and one Sam frame back over a socketpair.
void replay_frames(std::size_t payload_bytes, std::size_t reply_bytes, Ctx& c) {
  const mera::obs::Span span("replay.serve.frame_rtt", "bench");
  const std::string payload(payload_bytes, 'A'), reply(reply_bytes, 'S');
  EchoPair pair;
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair.fd) != 0)
    throw std::runtime_error("socketpair failed");
  pair.echo = std::thread([&pair, &reply] {
    try {
      while (auto f = mera::serve::read_frame(pair.fd[1]))
        mera::serve::write_frame(pair.fd[1], mera::serve::FrameType::kSam, reply);
    } catch (const std::exception&) {
      // The main side shut the pair down; its own error says why.
    }
  });
  std::vector<double> us;
  for (int i = 0; i < kFrameRoundTrips; ++i) {
    const double t0 = now_s();
    mera::serve::write_frame(pair.fd[0], mera::serve::FrameType::kBatch, payload);
    const auto f = mera::serve::read_frame(pair.fd[0]);
    if (!f || f->payload.size() != reply.size())
      throw std::runtime_error("frame echo lost its reply");
    us.push_back((now_s() - t0) * 1e6);
  }
  c.out.add("serve.frame_rtt_us", median(us), "us");
}

}  // namespace

void replay_layers(const ReplayInputs& in, MetricTable& out) {
  mera::pgas::Runtime rt(in.ref.topology());
  Ctx c{in.ref, in.cfg, rt, out};
  double batch_bytes = 0.0;
  const auto batches = replay_parse(in, c, batch_bytes);
  replay_permute(batches, c);
  replay_team_start(c);
  Sample sample(in.reads, in.ref.config().k);
  replay_lookup(sample, c);
  replay_caches(sample, c);
  replay_align(sample, c);
  const double sam_per_read = replay_sam(sample, c);

  std::size_t batch_reads = 0;
  for (const auto& b : batches) batch_reads += b.size();
  batch_reads /= std::max<std::size_t>(1, batches.size());
  replay_frames(static_cast<std::size_t>(batch_bytes),
                static_cast<std::size_t>(sam_per_read * static_cast<double>(batch_reads)), c);
}

std::vector<std::string> order_layer_metrics(const std::vector<Metric>& from,
                                             MetricTable& to) {
  std::vector<std::string> missing;
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = std::find_if(from.begin(), from.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == from.end()) {
      missing.push_back(name);
      continue;
    }
    to.add(name, it->value, unit);
  }
  return missing;
}

}  // namespace e2e
