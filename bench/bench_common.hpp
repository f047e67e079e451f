// Shared workload builders and printing helpers for the paper-reproduction
// benches. Each bench binary prints the corresponding paper table/figure's
// rows.
//
// Scale note: the paper's datasets are Gbp-scale on up to 15,360 Cray cores;
// here genomes are Mbp-scale and ranks are threads with a LogGP cost model.
// Improvement *factors* and scaling *shapes* are the reproduced quantities,
// not absolute seconds.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/batch_sw.hpp"
#include "obs/clock.hpp"
#include "seq/fasta.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace bench {

/// The one clock path every bench row measures with — shared with the obs
/// subsystem, so BENCH_*.json seconds and --trace/--metrics seconds agree.
using mera::obs::now_s;
using StopWatch = mera::obs::StopWatch;

struct Workload {
  std::string name;
  std::vector<mera::seq::SeqRecord> contigs;
  std::vector<mera::seq::SeqRecord> reads;
  std::size_t genome_len = 0;
};

struct WorkloadSpec {
  std::string name;
  std::size_t genome_len = 2'000'000;
  double repeat_fraction = 0.03;   ///< human-like low repeat content
  double depth = 4.0;
  std::size_t read_len = 101;
  double error_rate = 0.004;
  double junk_fraction = 0.01;
  bool grouped = true;
  std::uint64_t seed = 1;
};

inline Workload make_workload(const WorkloadSpec& spec) {
  Workload w;
  w.name = spec.name;
  w.genome_len = spec.genome_len;
  mera::seq::GenomeParams gp;
  gp.length = spec.genome_len;
  gp.repeat_fraction = spec.repeat_fraction;
  gp.rng_seed = spec.seed;
  const std::string genome = simulate_genome(gp);
  mera::seq::ContigParams cp;
  cp.min_len = 800;
  cp.max_len = 4000;
  cp.rng_seed = spec.seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = spec.read_len;
  rp.depth = spec.depth;
  rp.error_rate = spec.error_rate;
  rp.junk_fraction = spec.junk_fraction;
  rp.grouped = spec.grouped;
  rp.rng_seed = spec.seed + 2;
  w.reads = simulate_reads(genome, rp);
  return w;
}

/// Scaled-down "human" dataset: low repeat content, 101 bp reads.
inline WorkloadSpec human_like(std::size_t genome_len = 2'000'000,
                               double depth = 4.0) {
  WorkloadSpec s;
  s.name = "human-like";
  s.genome_len = genome_len;
  s.repeat_fraction = 0.03;
  s.depth = depth;
  s.read_len = 101;
  s.seed = 101;
  return s;
}

/// Scaled-down "wheat" dataset: bigger, repeat-rich, longer reads — the
/// grand-challenge genome of the paper.
inline WorkloadSpec wheat_like(std::size_t genome_len = 4'000'000,
                               double depth = 4.0) {
  WorkloadSpec s;
  s.name = "wheat-like";
  s.genome_len = genome_len;
  s.repeat_fraction = 0.25;
  s.depth = depth;
  s.read_len = 150;
  s.seed = 202;
  return s;
}

/// E. coli-scale dataset for the single-node experiment (Figure 11).
inline WorkloadSpec ecoli_like(double depth = 6.0) {
  WorkloadSpec s;
  s.name = "ecoli-like";
  s.genome_len = 1'000'000;  // scaled from 4.64 Mbp
  s.repeat_fraction = 0.01;
  s.depth = depth;
  s.read_len = 76;
  s.seed = 303;
  return s;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("(simulated-model seconds; compare factors/shape, not absolutes)\n");
  std::printf("==============================================================\n");
}

/// Machine-readable bench output: one row per measured configuration, each a
/// flat map of numeric metrics, written as `BENCH_<name>.json` so CI can
/// archive per-commit perf trajectories next to the human-readable stdout.
/// Each file is stamped with where it was measured: host name, the SW tier
/// auto-dispatch picks there, and the build type and git sha of the build
/// (from configure time; "unknown" outside a git checkout).
///
///   bench::JsonSummary json("fig13", "parallel shards + batch prefetch");
///   json.config("shards_K4_J4");
///   json.metric("wall_s", wall);
///   ...
///   json.write();   // -> BENCH_fig13.json in the working directory
class JsonSummary {
 public:
  JsonSummary(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  /// Start a new configuration row; metric() calls attach to it.
  void config(const std::string& config_name) {
    rows_.push_back({config_name, {}});
  }
  /// Attach a metric to the current row (opens a "default" row if the bench
  /// never called config()).
  void metric(const std::string& key, double value) {
    if (rows_.empty()) config("default");
    rows_.back().metrics.emplace_back(key, value);
  }

  /// Writes BENCH_<name>.json (or an explicit path); returns success. A
  /// non-finite metric has no JSON spelling: it is written as null and the
  /// call returns false.
  bool write(std::string path = "") const {
    if (path.empty()) path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) != 0)
      std::snprintf(host, sizeof host, "unknown");
    const char* isa = mera::align::isa_name(
        mera::align::resolve_isa(mera::align::SwIsa::kAuto));
    out << "{\n  \"bench\": \"" << escaped(name_) << "\",\n"
        << "  \"description\": \"" << escaped(description_) << "\",\n"
        << "  \"host\": \"" << escaped(host) << "\",\n"
        << "  \"sw_isa\": \"" << isa << "\",\n"
        << "  \"build_type\": \"" << escaped(MERA_BUILD_TYPE) << "\",\n"
        << "  \"git_sha\": \"" << escaped(MERA_GIT_SHA) << "\",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n  \"configs\": [\n";
    bool all_finite = true;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {\"name\": \"" << escaped(rows_[i].name) << "\"";
      for (const auto& [key, value] : rows_[i].metrics) {
        char buf[64] = "null";
        if (std::isfinite(value))
          std::snprintf(buf, sizeof buf, "%.9g", value);
        else
          all_finite = false;
        out << ", \"" << escaped(key) << "\": " << buf;
      }
      out << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
    out.flush();
    if (out) std::printf("\nJSON summary written: %s\n", path.c_str());
    if (!all_finite)
      std::fprintf(stderr, "JSON summary %s: non-finite metric written as null\n",
                   path.c_str());
    return out && all_finite;
  }

 private:
  /// Minimal JSON string escaping (quotes, backslashes, control chars).
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }

  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string name_;
  std::string description_;
  std::vector<Row> rows_;
};

}  // namespace bench
