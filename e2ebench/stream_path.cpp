#include "stream_path.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "process.hpp"
#include "sam_check.hpp"
#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace e2e {

namespace core = mera::core;
namespace pgas = mera::pgas;
namespace shard = mera::shard;

namespace {

/// Set-ups per run; setup_s is their median. Each runs in a fresh process,
/// as a CLI invocation does: repeated builds inside one process reuse (or
/// re-fault) the previous index's heap and time bimodally. The first
/// kWarmupSetups are not timed: on a VM that was idle, the first processes
/// to touch a few hundred MB run 2-3x slower while the host backs the memory.
/// Of the kSetups timed ones, kSetupsBefore run before the measured stream,
/// one is the stream child's own and the rest run after it, so a slow spell
/// of the host a few seconds long cannot cover them all.
constexpr int kWarmupSetups = 3;
constexpr int kSetups = 9;
constexpr int kSetupsBefore = 4;
constexpr double kSetupTimeoutS = 30.0;
constexpr double kChildTimeoutS = 150.0;

std::string pass_sam_path(const std::string& dir, std::size_t i) {
  return dir + "/pass_" + std::to_string(i) + ".sam";
}

core::SamProgram program() {
  core::SamProgram pg;
  pg.name = "meraligner";
  pg.command_line = "e2e_pipeline";
  return pg;
}

/// One pass over the stream, as measured from outside: wall time from the
/// first byte read to the last SAM byte flushed, and the interval between
/// successive batch completions. A traced pass also records each batch as
/// a bench span and feeds the per-batch counters to `tally`.
struct Pass {
  double reads = 0.0;
  double wall_s = 0.0;
  std::vector<double> batch_s;
};

template <typename Session>
Pass stream_pass(Session& session, pgas::Runtime& rt,
                 const std::vector<std::string>& files,
                 core::AlignmentSink& sink, PathTally* tally) {
  const mera::obs::Span span("bench.stream", "bench");
  auto& tracer = mera::obs::Tracer::global();
  Pass out;
  const double t0 = now_s();
  double last = t0;
  std::uint64_t last_us = tracer.enabled() ? tracer.now_us() : 0;
  const auto res = session.align_batch_files(
      rt, files, sink, {}, [&](std::size_t, const auto& batch) {
        const double t = now_s();
        out.batch_s.push_back(t - last);
        last = t;
        if (!tally) return;
        const std::uint64_t us = tracer.now_us();
        tracer.record("bench.batch", "bench", last_us, us - last_us);
        last_us = us;
        tally->add(batch);
      });
  out.wall_s = now_s() - t0;
  out.reads = static_cast<double>(res.stats.reads_processed);
  if (tally) tally->add_stream(res);
  return out;
}

/// The CLI's single-index path on Topology(4 ranks, 2 per node).
class PlainEngine {
 public:
  explicit PlainEngine(std::string fasta) : fasta_(std::move(fasta)) {}
  void setup() {
    ref_.emplace(core::IndexedReference::build_from_fasta(rt_, fasta_, icfg_));
    const core::AlignSession ready(*ref_, scfg_);
  }
  Pass pass(const std::vector<std::string>& files, const std::string& sam,
            PathTally* tally) {
    core::AlignSession session(*ref_, scfg_);
    core::SamFileSink sink(sam, *ref_, program());
    return stream_pass(session, rt_, files, sink, tally);
  }
  const core::IndexedReference& replay_ref() const { return *ref_; }
  const core::SessionConfig& config() const { return scfg_; }

 private:
  std::string fasta_;
  pgas::Runtime rt_{pgas::Topology(4, 2)};
  const core::IndexConfig icfg_{};    // CLI defaults: k=51, exact on
  const core::SessionConfig scfg_{};  // CLI defaults: max-hits 32, --sw full
  std::optional<core::IndexedReference> ref_;
};

/// The CLI's --shards 4 --shard-by cost path with --ranks 2 --ppn 2, so the
/// auto shard executor runs two shards at once (J = 4 threads / 2 ranks).
/// Not single-rank runtimes with J = 4: a one-thread index build on the VM
/// the baseline comes from alternates between two speeds 1.5x apart from
/// one process to the next, and set-up medians flipped with it.
class ShardedEngine {
 public:
  explicit ShardedEngine(std::string fasta) : fasta_(std::move(fasta)) {}
  void setup() {
    const auto targets = mera::seq::read_fasta(fasta_);
    shard::ShardPlanOptions popt;
    popt.shards = 4;
    popt.k = icfg_.k;
    ref_.emplace(shard::ShardedReference::build(
        rt_, targets, shard::plan_shards(targets, popt), icfg_));
    const shard::ShardedAlignSession ready(*ref_, cfg_);
  }
  Pass pass(const std::vector<std::string>& files, const std::string& sam,
            PathTally* tally) {
    shard::ShardedAlignSession session(*ref_, cfg_);
    core::SamFileSink sink(sam, ref_->sam_targets(), rt_.nranks(), program());
    return stream_pass(session, rt_, files, sink, tally);
  }
  /// Layer replays run on shard 0: a complete index over a quarter of the
  /// contigs, on the same topology.
  const core::IndexedReference& replay_ref() const { return ref_->shard(0); }
  const core::SessionConfig& config() const { return cfg_.session; }

 private:
  std::string fasta_;
  pgas::Runtime rt_{pgas::Topology(2, 2)};
  const core::IndexConfig icfg_{};
  const shard::ShardedSessionConfig cfg_{core::SessionConfig{}, 0, nullptr};
  std::optional<shard::ShardedReference> ref_;
};

template <typename Engine>
void drive(const StreamOptions& o, Engine& engine) {
  const auto files = batch_paths(o.dir, o.workload->files);
  KvFile kv;
  {
    const mera::obs::Span span("bench.setup", "bench");
    const double t0 = now_s();
    engine.setup();
    kv.put("setup_s", now_s() - t0);
  }
  if (o.setup_only) {
    kv.write(o.dir + "/setup.txt");
    return;
  }

  std::size_t sam_files = 0;
  // Whole passes until the budget is spent (at least one).
  const auto passes = [&](double budget, PathTally* tally) {
    std::vector<Pass> out;
    const double t0 = now_s();
    while (out.empty() || now_s() - t0 < budget) {
      out.push_back(engine.pass(files, pass_sam_path(o.dir, sam_files++), tally));
      std::fprintf(stderr, "pass %zu%s: %.0f reads in %.3f s (%.0f reads/s)\n",
                   sam_files - 1, tally ? " traced" : "", out.back().reads,
                   out.back().wall_s, out.back().reads / out.back().wall_s);
    }
    return out;
  };
  const auto walls = [](const std::vector<Pass>& ps) {
    std::vector<double> w;
    for (const Pass& p : ps) w.push_back(p.wall_s);
    return w;
  };

  const auto plain = passes(o.trace ? o.seconds / 2 : o.seconds, nullptr);
  for (const Pass& p : plain) {
    kv.put("pass_reads", p.reads);
    kv.put("pass_wall_s", p.wall_s);
    kv.put("batch_s", p.batch_s);
  }
  if (o.trace) {
    mera::obs::Tracer::global().enable();
    PathTally tally;
    const auto traced = passes(o.seconds / 2, &tally);

    // Replays need the workload's reads; loading them is not timed.
    std::vector<mera::seq::SeqRecord> reads;
    for (const auto& f : files) {
      auto part = mera::seq::read_fastq(f);
      reads.insert(reads.end(), part.begin(), part.end());
    }
    MetricTable layers;
    replay_layers({engine.replay_ref(), engine.config(), reads, files, {}}, layers);
    const auto events = finish_trace(o.trace_path);
    add_path_metrics(tally, ServeTally{}, events,
                     trace_overhead(walls(plain), walls(traced)), layers);
    for (const Metric& m : layers.rows()) kv.metric(m);
  }
  kv.put("sam_files", static_cast<double>(sam_files));
  kv.write(o.dir + "/child.txt");
}

/// Runs this binary as the system under test (--child); throws unless it
/// exits 0 in time.
ChildProcess::Exit run_child(const StreamOptions& o, bool setup_only) {
  std::vector<std::string> argv{self_exe(), "--child", "--workload",
                                std::string(o.workload->name), "--workdir", o.dir,
                                "--seconds", format_number(o.seconds), "--trace",
                                o.trace ? "1" : "0", "--trace-out", o.trace_path};
  if (setup_only) argv.emplace_back("--setup-only");
  ChildProcess child(argv);
  const auto exit = child.wait(setup_only ? kSetupTimeoutS : kChildTimeoutS);
  if (exit.code != 0)
    throw std::runtime_error("system under test exited with code " +
                             std::to_string(exit.code));
  return exit;
}

}  // namespace

void run_stream_child(const StreamOptions& o) {
  const std::string fasta = contigs_path(o.dir);
  if (o.workload->path == Path::kSharded) {
    ShardedEngine engine(fasta);
    drive(o, engine);
  } else {
    PlainEngine engine(fasta);
    drive(o, engine);
  }
}

RunResult run_stream_workload(const StreamOptions& o, const Inputs& in) {
  std::vector<double> setup_s;
  const auto setups = [&](int n, bool timed) {
    for (int i = 0; i < n && !o.trace; ++i) {
      (void)run_child(o, true);
      if (timed) setup_s.push_back(KvFile::read(o.dir + "/setup.txt").get1("setup_s"));
    }
  };
  setups(kWarmupSetups, false);
  setups(kSetupsBefore, true);
  const auto exit = run_child(o, false);
  const KvFile kv = KvFile::read(o.dir + "/child.txt");
  setup_s.push_back(kv.get1("setup_s"));
  setups(kSetups - kSetupsBefore - 1, true);
  for (const double s : setup_s) std::fprintf(stderr, "setup: %.4f s\n", s);

  RunResult r;
  const SamCatalog catalog(in.contigs);
  const ReadSet sent(in.reads);
  const auto nfiles = static_cast<std::size_t>(kv.get1("sam_files"));
  SamTally tally;
  for (std::size_t i = 0; i < nfiles; ++i) {
    std::ifstream f(pass_sam_path(o.dir, i), std::ios::binary);
    std::ostringstream text;
    text << f.rdbuf();
    const SamCheck c = check_sam(text.str(), catalog, sent, true);
    r.attempted += static_cast<std::size_t>(o.workload->files);
    if (!c.ok) {
      r.failed += static_cast<std::size_t>(o.workload->files);
      r.problem("pass " + std::to_string(i) + ": " + c.error);
    }
    tally += c.tally;
  }
  const double reads_sent = static_cast<double>(nfiles * in.reads.size());
  const double aligned_frac = static_cast<double>(tally.aligned_reads) / reads_sent;
  const double recall = static_cast<double>(tally.truth_hits) /
                        static_cast<double>(nfiles * sent.non_junk);
  if (recall < o.workload->min_truth_recall)
    r.problem("truth_recall " + format_number(recall) + " below the floor");

  if (o.trace) {
    for (const auto& name : order_layer_metrics(kv.metrics(), r.metrics))
      r.problem("per-layer metric missing: " + name);
    return r;
  }
  // Throughput over the whole timed window: every pass counts, weighted by
  // its length.
  const auto& batch_s = kv.get("batch_s");
  r.metrics.add("setup_s", median(setup_s), "s");
  r.metrics.add("reads_per_s", sum(kv.get("pass_reads")) / sum(kv.get("pass_wall_s")),
                "reads/s");
  r.metrics.add("batch_p50_ms", quantile(batch_s, 0.5) * 1e3, "ms");
  r.metrics.add("batch_p90_ms", quantile(batch_s, 0.9) * 1e3, "ms");
  r.metrics.add("peak_rss_mb", static_cast<double>(exit.max_rss_kb) / 1024.0, "MB");
  r.metrics.add("aligned_frac", aligned_frac, "ratio");
  r.metrics.add("truth_recall", recall, "ratio");
  return r;
}

}  // namespace e2e
