// The always-on multi-tenant alignment daemon.
//
// The paper's pipeline amortizes index construction over one run; the daemon
// amortizes it over a PROCESS LIFETIME. It owns one warm Backend (index +
// session caches, built or --load-cache-warmed once) and one pgas::Runtime,
// listens on a UNIX-domain socket speaking the serve::framing protocol, and
// serves each connection as one tenant's query stream: FASTQ/SeqDB batches
// in, SAM bytes out, every tenant hitting the same warm caches (the
// admission policy arbitrates who stays resident) and — on the sharded
// backend — the same process-wide shard executor (ShardedSessionConfig::pool
// makes J a global budget, not a per-session one).
//
// Concurrency model: connections are threads, but alignment is serialized
// through a FIFO fair gate — batches run one at a time in strict arrival
// order, so no tenant can starve another, and the session internals (shared
// reconcile scratch, one Runtime) never see two batches at once. Cache
// autosave runs on its own timer thread against the live session (safe by
// design: each cache shard snapshots under its lock, and save_caches writes
// tmp-then-rename so even kill -9 mid-save keeps the last good snapshot).
//
// Robustness contract: SIGPIPE is ignored (a vanished client surfaces as
// EPIPE on its own connection); a malformed frame or batch is answered with
// an Error frame or closes that one connection, never the process; SIGINT/
// SIGTERM request a graceful drain — stop accepting, let in-flight batches
// finish and flush, save caches, exit.
//
// Observability: per-tenant accounting (TenantStats, also served as JSON
// over the socket), `tenant=`-labelled copies of the cache/SW/phase metric
// series, serve-specific series (mera_serve_*), and the whole process
// MetricsRegistry served as a Prometheus text scrape via a MetricsReq frame.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/alignment_sink.hpp"
#include "pgas/runtime.hpp"
#include "serve/backend.hpp"
#include "serve/framing.hpp"

namespace mera::serve {

struct DaemonConfig {
  std::string socket_path;
  /// Cache snapshot directory: autosaved every autosave_interval_s while
  /// serving and once more on graceful shutdown. Empty = no persistence.
  std::string cache_dir;
  /// Seconds between autosaves; <= 0 saves only at shutdown.
  double autosave_interval_s = 0.0;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// The @PG line stamped on every connection's SAM stream.
  core::SamProgram program{};
  int backlog = 16;
};

/// One tenant's cumulative accounting (summed over its connections).
struct TenantStats {
  std::uint64_t connections = 0;
  std::uint64_t batches = 0;
  std::uint64_t reads = 0;
  std::uint64_t alignments = 0;
  std::uint64_t sam_bytes = 0;
  std::uint64_t errors = 0;   ///< batches answered with an Error frame
  double align_s = 0.0;       ///< simulated seconds inside align_batch
  double gate_wait_s = 0.0;   ///< real seconds queued behind other tenants
};

class Daemon {
 public:
  /// Takes ownership of the warm backend; the Runtime is constructed here
  /// (it is non-movable) from the topology the index was built on.
  Daemon(Backend backend, pgas::Topology topo, DaemonConfig cfg);
  /// Stops and drains if still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen + start the accept and autosave threads. Throws
  /// FramingError when the socket cannot be bound.
  void start();
  /// Request a graceful drain. Async-signal-safe (an atomic store and a
  /// pipe write), so signal handlers may call it directly. Idempotent.
  void request_stop() noexcept;
  /// Block until the daemon has drained: no more accepts, in-flight
  /// connections finished and flushed, autosave thread joined, final cache
  /// snapshot written (when cache_dir is set), socket file removed.
  void wait();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return cfg_.socket_path;
  }
  /// Per-tenant accounting snapshot.
  [[nodiscard]] std::map<std::string, TenantStats> tenant_stats() const;
  /// The same accounting as JSON (what a StatsReq frame returns).
  [[nodiscard]] std::string stats_json() const;
  [[nodiscard]] std::uint64_t autosaves_completed() const noexcept {
    return autosaves_.load();
  }

  /// Route SIGINT/SIGTERM to d.request_stop() and ignore SIGPIPE. One
  /// daemon per process: a later call re-targets the handlers.
  static void install_signal_handlers(Daemon& d);

 private:
  /// FIFO ticket gate: tenants' batches align strictly in arrival order.
  class FairGate {
   public:
    /// Blocks until it is this caller's turn; returns real seconds waited.
    double acquire();
    void release();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t next_ticket_ = 0;
    std::uint64_t serving_ = 0;
  };

  struct Conn {
    int fd = -1;
    std::thread th;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void autosave_loop();
  void handle_connection(Conn& conn);
  /// One Batch frame: parse, align through the gate, reply kSam (or kError
  /// and keep the connection). `sam` is the connection's accumulated SAM
  /// stream; bytes since the last batch are drained into the reply.
  void handle_batch(Conn& conn, const std::string& tenant,
                    std::string&& payload, std::ostringstream& sam,
                    core::SamStreamSink& sink);
  void reap_finished_connections();

  Backend backend_;
  pgas::Runtime rt_;
  DaemonConfig cfg_;
  std::vector<core::SamTarget> targets_;  ///< catalog, computed once

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< self-pipe: request_stop -> poll wakeup
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool drained_ = false;
  std::thread accept_thread_;
  std::thread autosave_thread_;

  FairGate gate_;
  std::atomic<std::uint64_t> autosaves_{0};

  mutable std::mutex stats_mu_;
  std::map<std::string, TenantStats> stats_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace mera::serve
