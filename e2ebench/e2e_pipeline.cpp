// e2e_pipeline — the end-to-end benchmark of the whole alignment path:
// a reads file goes in, SAM bytes come out, through the CLI's library
// sequence or through a live meralignerd (see README.md in this directory).
//
//   e2e_pipeline --workload W --seed N --seconds S --trace 0|1
//   e2e_pipeline --self-check
//
// Inputs are generated from --seed (same seed, same bytes); the system under
// test runs in a child process for S seconds of whole passes; every SAM it
// produces is checked. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1,
// which also writes .bench_work/TRACE_<W>.json for Perfetto). Exit code 0
// only when the run is correct.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "daemon_path.hpp"
#include "sam_check.hpp"
#include "stream_path.hpp"
#include "workload.hpp"

namespace {

using namespace e2e;

constexpr const char* kWorkRoot = ".bench_work";

void usage() {
  std::fprintf(stderr,
               "usage: e2e_pipeline --workload %s --seed N --seconds S "
               "--trace 0|1\n       e2e_pipeline --self-check\n",
               workload_names().c_str());
}

struct Args {
  std::string workload, workdir, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, self_check = false, child = false, setup_only = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (flag == "--child") {
      a.child = true;
      continue;
    }
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0.0) || a.seconds > 600.0) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return true;
}

/// Removes a run's scratch inputs and SAM files however the run ends.
struct WorkDir {
  std::string path;
  explicit WorkDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Replace field `col` of the first record line.
std::string mutate_first_record(const std::string& sam, int col, const std::string& value) {
  std::size_t b = 0;
  while (sam[b] == '@') b = sam.find('\n', b) + 1;
  const std::size_t e = sam.find('\n', b);
  std::string line = sam.substr(b, e - b);
  std::size_t fb = 0;
  for (int i = 0; i < col; ++i) fb = line.find('\t', fb) + 1;
  const std::size_t fe = line.find('\t', fb);
  line.replace(fb, fe - fb, value);
  return sam.substr(0, b) + line + sam.substr(e);
}

std::string first_record_field(const std::string& sam, int col) {
  std::size_t b = 0;
  while (sam[b] == '@') b = sam.find('\n', b) + 1;
  for (int i = 0; i < col; ++i) b = sam.find('\t', b) + 1;
  return sam.substr(b, sam.find('\t', b) - b);
}

/// The SAM checker must accept a real stream and reject five mutations of
/// it; then a tiny FASTQ->SAM stream must run end to end in under 2 s.
int self_check() {
  namespace core = mera::core;
  const double t0 = now_s();
  const WorkDir dir(std::string(kWorkRoot) + "/self-check-" + std::to_string(::getpid()));
  const WorkloadDef tiny{"self_check", Path::kPlain, 1, 60'000, 0.03, 101, 1.0, 2, 0.5};
  const Inputs in = make_inputs(tiny, 7);
  write_inputs(in, tiny, dir.path);
  mera::pgas::Runtime rt(mera::pgas::Topology(2, 1));
  const auto ref = core::IndexedReference::build_from_fasta(rt, contigs_path(dir.path));
  core::AlignSession session(ref);
  {
    core::SamFileSink sink(dir.path + "/tiny.sam", ref);
    (void)session.align_batch_files(rt, batch_paths(dir.path, tiny.files), sink);
  }
  const double stream_s = now_s() - t0;
  const std::string sam = slurp(dir.path + "/tiny.sam");

  const SamCatalog catalog(in.contigs);
  const ReadSet sent(in.reads);
  int failures = 0;
  const auto expect = [&](const char* what, const std::string& text, bool ok,
                          const char* reason) {
    const SamCheck c = check_sam(text, catalog, sent, true);
    const bool pass = c.ok == ok && (ok || c.error.find(reason) != std::string::npos);
    std::fprintf(stderr, "self-check %-28s %s%s%s\n", what, pass ? "ok" : "FAILED",
                 c.ok ? "" : " - ", c.error.c_str());
    failures += pass ? 0 : 1;
    return c;
  };
  const SamCheck good = expect("good stream", sam, true, "");
  if (good.tally.records == 0 || good.tally.truth_hits == 0) {
    std::fprintf(stderr, "self-check: the tiny stream aligned nothing\n");
    return 1;  // nothing to mutate
  }
  const std::string rname = first_record_field(sam, 2);
  const auto len = catalog.targets[catalog.by_name.at(rname)].length;
  expect("truncated line", sam.substr(0, sam.size() - 20), false, "truncated");
  expect("unknown RNAME", mutate_first_record(sam, 2, "no_such_contig"), false,
         "not in the reference");
  expect("POS past the contig end", mutate_first_record(sam, 3, std::to_string(len)), false,
         "past the contig end");
  expect("CIGAR/SEQ length mismatch", mutate_first_record(sam, 5, "1M"), false,
         "CIGAR query length");
  const std::size_t header_end = sam.find('\n', sam.find("\n@PG") + 1) + 1;
  expect("duplicate header", sam + sam.substr(0, header_end), false, "duplicate header");
  const bool fast = stream_s < 2.0;
  std::fprintf(stderr, "self-check tiny FASTQ->SAM stream     %s (%.3f s, %zu records)\n",
               fast ? "ok" : "FAILED", stream_s, good.tally.records);
  failures += fast ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

int run(const Args& a) {
  const WorkloadDef* w = find_workload(a.workload);
  if (!w) {
    usage();
    return 2;
  }
  if (a.child) {
    run_stream_child({w, a.workdir, a.seconds, a.trace, a.trace_out, a.setup_only});
    return 0;
  }
  std::fprintf(stderr, "e2e_pipeline %s seed=%llu seconds=%g trace=%d host=%s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
               a.trace ? 1 : 0, host_stamp_json().c_str());
  const WorkDir dir(std::string(kWorkRoot) + "/" + a.workload + "-s" +
                    std::to_string(a.seed) + "-p" + std::to_string(::getpid()));
  const std::string trace_path =
      std::string(kWorkRoot) + "/TRACE_" + a.workload + ".json";
  const Inputs in = make_inputs(*w, a.seed);
  write_inputs(in, *w, dir.path);

  const RunResult r =
      w->path == Path::kDaemon
          ? run_daemon_workload({dir.path, a.seconds, a.trace, trace_path, w}, in)
          : run_stream_workload({w, dir.path, a.seconds, a.trace, trace_path}, in);
  for (const Metric& m : r.metrics.rows())
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : r.problems) std::fprintf(stderr, "PROBLEM: %s\n", p.c_str());
  if (a.trace) std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              r.correct() ? "true" : "false", r.attempted, r.failed,
              r.metrics.json().c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a) || (!a.self_check && a.workload.empty())) {
    usage();
    return 2;
  }
  try {
    return a.self_check ? self_check() : run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pipeline: error: %s\n", e.what());
    return 1;
  }
}
