#include "daemon_path.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <latch>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "process.hpp"
#include "sam_check.hpp"
#include "seq/fastq.hpp"
#include "serve/backend.hpp"
#include "serve/framing.hpp"

namespace e2e {

namespace core = mera::core;
namespace serve = mera::serve;

namespace {

constexpr std::size_t kReadsPerFrame = 64;
constexpr int kConnections = 2;
/// Daemon start-ups per run, as for the stream workloads: kWarmupSetups
/// untimed ones warm the VM's memory up, then kSetups timed ones, of which
/// kSetupsBefore come before the traffic (the last of them serves it) and
/// the rest after, so setup_s (their median) spans the whole run.
constexpr int kWarmupSetups = 3;
constexpr int kSetups = 9;
constexpr int kSetupsBefore = 5;
constexpr double kReadyTimeoutS = 60.0;
constexpr double kStopTimeoutS = 30.0;
constexpr std::size_t kReplayFrames = 150;  ///< in-process Backend replay pass

std::string fastq_text(std::span<const mera::seq::SeqRecord> reads) {
  std::string out;
  for (const auto& r : reads) out += '@' + r.name + '\n' + r.seq + "\n+\n" + r.qual + '\n';
  return out;
}

/// meralignerd from the same build, with the CLI defaults on Topology(4, 2).
std::vector<std::string> daemon_argv(const std::string& fasta, const std::string& socket) {
  return {self_exe_dir() + "/tools/meralignerd", "--targets", fasta, "--socket", socket,
          "--ranks", "4", "--ppn", "2", "--quiet"};
}

/// Seconds from `t0` (taken just before the spawn) until the daemon accepts
/// a connection: index build from FASTA on disk plus socket bring-up.
double wait_ready(ChildProcess& d, const std::string& socket, double t0) {
  for (;;) {
    try {
      const int fd = serve::connect_unix(socket);
      const double ready = now_s() - t0;
      ::close(fd);
      return ready;
    } catch (const serve::FramingError&) {
      // Not listening yet.
    }
    if (d.exited()) throw std::runtime_error("meralignerd exited during start-up");
    if (now_s() - t0 > kReadyTimeoutS)
      throw std::runtime_error("meralignerd did not accept connections in time");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Graceful drain (SIGTERM); returns the daemon's peak RSS in KB.
long stop_daemon(ChildProcess& d) {
  d.signal(SIGTERM);
  const auto exit = d.wait(kStopTimeoutS);
  if (exit.code != 0)
    throw std::runtime_error("meralignerd exited with code " + std::to_string(exit.code));
  return exit.max_rss_kb;
}

/// One tenant's closed loop: send a frame, wait for its reply, repeat.
struct Conn {
  std::string tenant;
  std::size_t first = 0;           ///< frames first, first+2, ... (cycling)
  std::vector<std::size_t> sent;   ///< frame index of each batch
  std::vector<bool> errored;       ///< answered with an Error frame
  std::vector<std::string> replies;
  std::vector<double> latency_s;   ///< Batch write start to Sam reply end
  double last_reply_s = 0.0;
  std::string failure;
};

void closed_loop(const std::string& socket, const std::vector<std::string>& frames,
                 Conn& c, std::latch& connected, std::latch& go, const double& deadline) {
  int fd = -1;
  try {
    fd = serve::connect_unix(socket);
    serve::write_frame(fd, serve::FrameType::kHello, c.tenant);
  } catch (const std::exception& e) {
    c.failure = e.what();
  }
  connected.count_down();
  go.wait();
  try {
    for (std::size_t i = 0; c.failure.empty() && now_s() < deadline; ++i) {
      const std::size_t idx = (c.first + kConnections * i) % frames.size();
      const double t0 = now_s();
      serve::write_frame(fd, serve::FrameType::kBatch, frames[idx]);
      auto f = serve::read_frame(fd);
      const double t1 = now_s();
      if (!f) throw std::runtime_error("daemon closed the connection");
      c.sent.push_back(idx);
      c.errored.push_back(f->type == serve::FrameType::kError);
      if (f->type == serve::FrameType::kError) {
        c.replies.emplace_back();
        continue;
      }
      if (f->type != serve::FrameType::kSam) throw std::runtime_error("unexpected reply frame");
      c.latency_s.push_back(t1 - t0);
      c.replies.push_back(std::move(f->payload));
      c.last_reply_s = t1;
    }
    if (fd >= 0) serve::write_frame(fd, serve::FrameType::kGoodbye, {});
  } catch (const std::exception& e) {
    c.failure = e.what();
  }
  if (fd >= 0) ::close(fd);
}

/// Per-tenant batches and gate wait from the daemon's StatsReq JSON.
double json_number(const std::string& json, std::size_t from, const std::string& key) {
  const auto at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) throw std::runtime_error("stats JSON lacks " + key);
  return std::stod(json.substr(at + key.size() + 3));
}

ServeTally query_serve_stats(const std::string& socket) {
  const int fd = serve::connect_unix(socket);
  std::string json;
  try {
    serve::write_frame(fd, serve::FrameType::kHello, "stats");
    serve::write_frame(fd, serve::FrameType::kStatsReq, {});
    auto f = serve::read_frame(fd);
    if (!f || f->type != serve::FrameType::kStats) throw std::runtime_error("no stats reply");
    json = std::move(f->payload);
    serve::write_frame(fd, serve::FrameType::kGoodbye, {});
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  ServeTally t;
  double batches = 0.0, wait_s = 0.0;
  for (const char* tenant : {"a", "b"}) {
    std::string name_field = "\"name\":\"";
    name_field.append(tenant).append("\"");
    const auto at = json.find(name_field);
    if (at == std::string::npos) throw std::runtime_error("stats JSON lacks a tenant");
    batches += json_number(json, at, "batches");
    wait_s += json_number(json, at, "gate_wait_s");
  }
  t.gate_wait_ms = batches > 0 ? wait_s / batches * 1e3 : 0.0;
  return t;
}

struct Traffic {
  std::vector<Conn> conns;
  double start_s = 0.0;
  ServeTally serve;
};

Traffic run_traffic(const std::string& socket, const std::vector<std::string>& frames,
                    double seconds) {
  Traffic t;
  t.conns.resize(kConnections);
  std::latch connected(kConnections), go(1);
  double deadline = 0.0;
  std::vector<std::thread> threads;
  for (int i = 0; i < kConnections; ++i) {
    t.conns[i].tenant.assign(1, static_cast<char>('a' + i));  // tenants a, b
    t.conns[i].first = static_cast<std::size_t>(i);
    threads.emplace_back(closed_loop, std::cref(socket), std::cref(frames),
                         std::ref(t.conns[i]), std::ref(connected), std::ref(go),
                         std::cref(deadline));
  }
  connected.wait();
  t.start_s = now_s();
  deadline = t.start_s + seconds;
  go.count_down();
  for (auto& th : threads) th.join();
  t.serve = query_serve_stats(socket);
  return t;
}

/// A fresh in-process serve::Backend (cold caches, like a new daemon) over
/// the first kReplayFrames frames: the daemon's per-batch work without the
/// socket, timed per batch.
std::vector<double> backend_pass(const core::IndexedReference& ref, mera::pgas::Runtime& rt,
                                 const std::vector<std::string>& frames, PathTally* tally) {
  serve::Backend backend(ref, core::SessionConfig{});
  std::ostringstream sam;
  core::SamStreamSink sink(sam, backend.sam_targets(), rt.nranks());
  std::vector<double> batch_s;
  for (std::size_t i = 0; i < std::min(kReplayFrames, frames.size()); ++i) {
    auto reads = mera::seq::parse_fastq(frames[i]);
    const mera::obs::Span span("bench.batch", "bench");
    const double t0 = now_s();
    const auto summary = backend.align_batch(rt, std::move(reads), sink);
    batch_s.push_back(now_s() - t0);
    sam.str("");
    if (tally) tally->add(summary);
  }
  if (tally) ++tally->passes;
  return batch_s;
}

}  // namespace

RunResult run_daemon_workload(const DaemonOptions& o, const Inputs& in) {
  const std::string fasta = contigs_path(o.dir);
  std::vector<std::string> frames;
  std::vector<ReadSet> frame_reads;
  for (std::size_t b = 0; b < in.reads.size(); b += kReadsPerFrame) {
    const auto part = std::span(in.reads).subspan(b, std::min(kReadsPerFrame, in.reads.size() - b));
    frames.push_back(fastq_text(part));
    frame_reads.emplace_back(part);
  }

  RunResult r;
  std::vector<double> setup_s;
  std::optional<ChildProcess> daemon;
  std::string socket;
  int started = 0;
  const auto start = [&](bool timed) {
    socket = o.dir + "/d" + std::to_string(started++) + ".sock";
    const double t0 = now_s();
    daemon.emplace(daemon_argv(fasta, socket));
    const double ready_s = wait_ready(*daemon, socket, t0);
    if (timed) setup_s.push_back(ready_s);
    std::fprintf(stderr, "setup%s: %.4f s\n", timed ? "" : " (warm-up)", ready_s);
  };
  const int warmups = o.trace ? 0 : kWarmupSetups;
  const int before = o.trace ? 1 : kSetupsBefore;
  for (int i = 0; i < warmups + before; ++i) {
    if (daemon) stop_daemon(*daemon);
    start(i >= warmups);
  }
  const Traffic traffic = run_traffic(socket, frames, o.trace ? o.seconds / 2 : o.seconds);
  const long rss_kb = stop_daemon(*daemon);
  for (int i = 0; i < kSetups - before && !o.trace; ++i) {
    start(true);
    stop_daemon(*daemon);
  }

  // Check every reply: the first Sam reply of a connection carries the one
  // header; each reply's QNAMEs must be reads of the frame it answers.
  const SamCatalog catalog(in.contigs);
  SamTally tally;
  double reads_sent = 0.0, non_junk_sent = 0.0, end_s = traffic.start_s;
  std::vector<double> latency;
  for (const Conn& c : traffic.conns) {
    if (!c.failure.empty()) r.problem("tenant " + c.tenant + ": " + c.failure);
    bool header_seen = false;
    for (std::size_t j = 0; j < c.sent.size(); ++j) {
      const ReadSet& rs = frame_reads[c.sent[j]];
      ++r.attempted;
      reads_sent += static_cast<double>(rs.by_name.size());
      non_junk_sent += static_cast<double>(rs.non_junk);
      if (c.errored[j]) {
        ++r.failed;
        continue;
      }
      const SamCheck chk = check_sam(c.replies[j], catalog, rs, !header_seen);
      header_seen = true;
      if (!chk.ok) {
        ++r.failed;
        r.problem("tenant " + c.tenant + " batch " + std::to_string(j) + ": " + chk.error);
      }
      tally += chk.tally;
    }
    latency.insert(latency.end(), c.latency_s.begin(), c.latency_s.end());
    end_s = std::max(end_s, c.last_reply_s);
  }
  if (r.attempted == 0) r.problem("no batch completed");
  const double recall = static_cast<double>(tally.truth_hits) / std::max(1.0, non_junk_sent);
  if (recall < o.workload->min_truth_recall)
    r.problem("truth_recall " + format_number(recall) + " below the floor");

  if (!o.trace) {
    r.metrics.add("setup_s", median(setup_s), "s");
    r.metrics.add("reads_per_s", reads_sent / (end_s - traffic.start_s), "reads/s");
    r.metrics.add("batch_p50_ms", quantile(latency, 0.5) * 1e3, "ms");
    r.metrics.add("batch_p90_ms", quantile(latency, 0.9) * 1e3, "ms");
    r.metrics.add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    r.metrics.add("aligned_frac", static_cast<double>(tally.aligned_reads) / reads_sent,
                  "ratio");
    r.metrics.add("truth_recall", recall, "ratio");
    return r;
  }

  // Traced run: the daemon cannot be traced from outside, so the layers are
  // measured on an in-process Backend over the same reference and frames.
  mera::pgas::Runtime rt(mera::pgas::Topology(4, 2));
  const auto ref = core::IndexedReference::build_from_fasta(rt, fasta, core::IndexConfig{});
  ServeTally serve_tally = traffic.serve;
  std::vector<double> plain_walls;
  std::vector<double> plain;
  for (int i = 0; i < 2; ++i) {  // the first pass warms the process up
    plain = backend_pass(ref, rt, frames, nullptr);
    plain_walls.push_back(sum(plain));
  }
  serve_tally.backend_batch_ms = median(plain) * 1e3;

  mera::obs::Tracer::global().enable();
  PathTally path;
  const auto traced = backend_pass(ref, rt, frames, &path);
  MetricTable layers;
  replay_layers({ref, core::SessionConfig{}, in.reads, {}, frames}, layers);
  const auto events = finish_trace(o.trace_path);
  add_path_metrics(path, serve_tally, events, trace_overhead(plain_walls, {sum(traced)}),
                   layers);
  for (const auto& name : order_layer_metrics(layers.rows(), r.metrics))
    r.problem("per-layer metric missing: " + name);
  return r;
}

}  // namespace e2e
