#include "serve/daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/align_session.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "seq/fastq.hpp"
#include "seq/seqdb.hpp"

namespace mera::serve {

namespace {

constexpr std::string_view kSeqDbMagic = "MERASDB1";

/// Tenant names become Prometheus label values and JSON strings; restrict
/// them so neither needs escaping and a hostile name cannot forge series.
bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!(std::isalnum(u) || c == '_' || c == '-' || c == '.' || c == ':'))
      return false;
  }
  return true;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<Daemon*> g_signal_daemon{nullptr};

void stop_signal_handler(int) {
  if (Daemon* d = g_signal_daemon.load(std::memory_order_relaxed))
    d->request_stop();
}

}  // namespace

// ---- FairGate ---------------------------------------------------------------

double Daemon::FairGate::acquire() {
  const double t0 = now_seconds();
  std::unique_lock lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  cv_.wait(lock, [&] { return serving_ == ticket; });
  return now_seconds() - t0;
}

void Daemon::FairGate::release() {
  {
    const std::lock_guard lock(mu_);
    ++serving_;
  }
  cv_.notify_all();
}

// ---- lifecycle --------------------------------------------------------------

Daemon::Daemon(Backend backend, pgas::Topology topo, DaemonConfig cfg)
    : backend_(std::move(backend)),
      rt_(topo),
      cfg_(std::move(cfg)),
      targets_(backend_.sam_targets()) {
  if (cfg_.socket_path.empty())
    throw std::invalid_argument("Daemon: socket_path must be set");
}

Daemon::~Daemon() {
  request_stop();
  if (started_ && !drained_) {
    try {
      wait();
    } catch (const std::exception& e) {
      obs::Log::warn("daemon shutdown: %s", e.what());
    }
  }
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Daemon::start() {
  if (started_) throw std::logic_error("Daemon::start called twice");
  if (::pipe(stop_pipe_) != 0)
    throw FramingError(std::string("pipe: ") + std::strerror(errno));
  listen_fd_ = listen_unix(cfg_.socket_path, cfg_.backlog);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (!cfg_.cache_dir.empty() && cfg_.autosave_interval_s > 0.0)
    autosave_thread_ = std::thread([this] { autosave_loop(); });
  obs::Log::info("daemon listening on %s (%d shard%s, %zu targets)",
                 cfg_.socket_path.c_str(), backend_.num_shards(),
                 backend_.num_shards() == 1 ? "" : "s", targets_.size());
}

void Daemon::request_stop() noexcept {
  // Async-signal-safe: one relaxed store and one write(2). Everything that
  // blocks (accept loop, autosave timer) polls the pipe's read end.
  if (stopping_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    [[maybe_unused]] const ssize_t r = ::write(stop_pipe_[1], &b, 1);
  }
}

void Daemon::wait() {
  if (!started_ || drained_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: no new connections exist. Shut down the read side of every live
  // connection so a blocked read_frame sees EOF; the in-flight batch and
  // its kSam reply still flush — SHUT_RD leaves the write side alone.
  {
    const std::lock_guard lock(conns_mu_);
    for (const auto& c : conns_)
      if (!c->done.load()) ::shutdown(c->fd, SHUT_RD);
  }
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      const std::lock_guard lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    if (conn->th.joinable()) conn->th.join();
    ::close(conn->fd);
  }
  if (autosave_thread_.joinable()) autosave_thread_.join();
  if (!cfg_.cache_dir.empty()) {
    try {
      backend_.save_caches(rt_, cfg_.cache_dir);
      obs::Log::info("final cache snapshot saved to %s",
                     cfg_.cache_dir.c_str());
    } catch (const std::exception& e) {
      obs::Log::warn("final cache save failed: %s", e.what());
    }
  }
  std::error_code ignored;
  std::filesystem::remove(cfg_.socket_path, ignored);
  drained_ = true;
  obs::Log::info("daemon drained");
}

void Daemon::install_signal_handlers(Daemon& d) {
  g_signal_daemon.store(&d, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A client vanishing mid-reply must surface as EPIPE on that write, never
  // as a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);
}

// ---- accept + autosave threads ---------------------------------------------

void Daemon::accept_loop() {
  auto& reg = obs::MetricsRegistry::global();
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  while (!stopping_.load()) {
    const int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      obs::Log::warn("daemon poll: %s", std::strerror(errno));
      break;
    }
    if (fds[1].revents || stopping_.load()) break;
    if (!(fds[0].revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      obs::Log::warn("daemon accept: %s", std::strerror(errno));
      break;
    }
    reap_finished_connections();
    reg.counter("mera_serve_connections_total", {},
                "Client connections accepted")
        .inc();
    reg.gauge("mera_serve_active_connections", {},
              "Connections currently open")
        .add(1.0);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->th = std::thread([this, raw] {
      handle_connection(*raw);
      ::shutdown(raw->fd, SHUT_RDWR);  // flush FIN now; close happens at reap
      raw->done.store(true);
      obs::MetricsRegistry::global()
          .gauge("mera_serve_active_connections", {}, "")
          .add(-1.0);
    });
    const std::lock_guard lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Daemon::autosave_loop() {
  const int timeout_ms =
      std::max(1, static_cast<int>(cfg_.autosave_interval_s * 1000.0));
  pollfd p{stop_pipe_[0], POLLIN, 0};
  while (!stopping_.load()) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r != 0 || stopping_.load()) return;  // pipe readable = drain
    try {
      // Safe against the serving threads: each cache shard snapshots under
      // its own lock, and the file lands via tmp-then-rename, so neither a
      // concurrent batch nor a crash mid-save can damage the snapshot.
      backend_.save_caches(rt_, cfg_.cache_dir);
      autosaves_.fetch_add(1);
      obs::MetricsRegistry::global()
          .counter("mera_serve_autosaves_total", {},
                   "Periodic cache snapshots completed")
          .inc();
      obs::Log::info("cache autosave -> %s", cfg_.cache_dir.c_str());
    } catch (const std::exception& e) {
      // Not fatal: the previous snapshot is still on disk (atomic rename).
      obs::Log::warn("cache autosave failed: %s", e.what());
    }
  }
}

// ---- per-connection serving -------------------------------------------------

void Daemon::handle_connection(Conn& conn) {
  const int fd = conn.fd;
  std::string tenant = "<unnamed>";
  try {
    auto hello = read_frame(fd, cfg_.max_frame_bytes);
    if (!hello) return;
    if (hello->type != FrameType::kHello ||
        !valid_tenant_name(hello->payload)) {
      write_frame(fd, FrameType::kError,
                  "expected a Hello frame naming the tenant ([A-Za-z0-9_.:-]"
                  "{1,64})");
      return;
    }
    tenant = hello->payload;
    {
      const std::lock_guard lock(stats_mu_);
      ++stats_[tenant].connections;
    }
    obs::Log::info("tenant %s connected", tenant.c_str());

    // The connection's SAM stream: one SamStreamSink for its lifetime, so
    // the header is written exactly once (into the first batch's reply) and
    // the concatenated kSam payloads are byte-identical to the file a
    // one-shot CLI run over the same batches would produce.
    std::ostringstream sam(std::ios::binary);
    core::SamStreamSink sink(sam, targets_, rt_.nranks(), cfg_.program);

    while (auto f = read_frame(fd, cfg_.max_frame_bytes)) {
      switch (f->type) {
        case FrameType::kBatch:
          handle_batch(conn, tenant, std::move(f->payload), sam, sink);
          break;
        case FrameType::kMetricsReq: {
          std::ostringstream os;
          obs::MetricsRegistry::global().write_prometheus(os);
          write_frame(fd, FrameType::kMetrics, os.str());
          break;
        }
        case FrameType::kStatsReq:
          write_frame(fd, FrameType::kStats, stats_json());
          break;
        case FrameType::kGoodbye:
          obs::Log::info("tenant %s said goodbye", tenant.c_str());
          return;
        default:
          write_frame(fd, FrameType::kError,
                      "unexpected frame type " +
                          std::to_string(static_cast<std::uint32_t>(f->type)));
          break;
      }
    }
  } catch (const FramingError& e) {
    // The peer vanished or spoke garbage. Its stream dies; nobody else's
    // does. A best-effort error reply, then drop.
    obs::Log::warn("tenant %s connection dropped: %s", tenant.c_str(),
                   e.what());
    try {
      write_frame(fd, FrameType::kError, e.what());
    } catch (...) {
    }
  } catch (const std::exception& e) {
    obs::Log::warn("tenant %s connection error: %s", tenant.c_str(), e.what());
    try {
      write_frame(fd, FrameType::kError, e.what());
    } catch (...) {
    }
  }
}

void Daemon::handle_batch(Conn& conn, const std::string& tenant,
                          std::string&& payload, std::ostringstream& sam,
                          core::SamStreamSink& sink) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels tlabel{{"tenant", tenant}};
  reg.counter("mera_serve_bytes_in_total", tlabel,
              "Batch payload bytes received")
      .add(static_cast<double>(payload.size()));

  // Parse OUTSIDE the gate: a malformed batch must cost the other tenants
  // nothing, and a parse error is a per-connection Error frame, not a
  // connection (let alone process) death.
  std::vector<seq::SeqRecord> reads;
  try {
    if (payload.size() >= kSeqDbMagic.size() &&
        std::string_view(payload).substr(0, kSeqDbMagic.size()) ==
            kSeqDbMagic) {
      // Decoded in memory by the same reader (and checks) as SeqDB files.
      reads = seq::SeqDBReader::from_bytes(std::move(payload)).read_all();
    } else {
      reads = seq::parse_fastq(payload);
    }
    // parse_fastq yields zero records for non-FASTQ text rather than
    // throwing; an empty batch is garbage either way, and silently serving
    // it would burn the connection's one SAM header on a useless reply.
    if (reads.empty())
      throw std::runtime_error(
          "no records parsed (empty or non-FASTQ/SeqDB payload)");
  } catch (const std::exception& e) {
    {
      const std::lock_guard lock(stats_mu_);
      ++stats_[tenant].errors;
    }
    reg.counter("mera_serve_errors_total", tlabel,
                "Batches answered with an Error frame")
        .inc();
    write_frame(conn.fd, FrameType::kError,
                std::string("batch rejected: ") + e.what());
    return;
  }

  // One batch at a time, strict arrival order: the FIFO gate is both the
  // fairness policy and the serialization the session internals require.
  const double waited_s = gate_.acquire();
  BatchSummary summary;
  try {
    summary = backend_.align_batch(rt_, std::move(reads), sink);
  } catch (...) {
    gate_.release();
    {
      const std::lock_guard lock(stats_mu_);
      ++stats_[tenant].errors;
    }
    reg.counter("mera_serve_errors_total", tlabel, "").inc();
    try {
      write_frame(conn.fd, FrameType::kError, "alignment failed");
    } catch (...) {
    }
    throw;
  }
  gate_.release();

  std::string bytes = sam.str();
  sam.str("");

  // Account BEFORE replying: the moment the client sees its Sam frame, a
  // stats/metrics read must already include this batch.
  {
    const std::lock_guard lock(stats_mu_);
    TenantStats& t = stats_[tenant];
    ++t.batches;
    t.reads += summary.stats.reads_processed;
    t.alignments += summary.stats.alignments_reported;
    t.sam_bytes += bytes.size();
    t.align_s += summary.report.total_time_s();
    t.gate_wait_s += waited_s;
  }
  reg.counter("mera_serve_batches_total", tlabel, "Batches served").inc();
  reg.counter("mera_serve_bytes_out_total", tlabel, "SAM bytes sent")
      .add(static_cast<double>(bytes.size()));
  reg.counter("mera_serve_gate_wait_seconds_total", tlabel,
              "Real seconds batches spent queued behind other tenants")
      .add(waited_s);
  // The session's counters again, split per tenant: same names, one extra
  // label. The unlabelled series keep the process-wide totals, so scrapes
  // can slice either way.
  core::add_batch_counters(summary.report, summary.stats, summary.seed_cache,
                           summary.target_cache, backend_.config().extension,
                           tlabel);

  write_frame(conn.fd, FrameType::kSam, bytes);
}

// ---- stats ------------------------------------------------------------------

std::map<std::string, TenantStats> Daemon::tenant_stats() const {
  const std::lock_guard lock(stats_mu_);
  return stats_;
}

std::string Daemon::stats_json() const {
  // Tenant names are pre-validated to [A-Za-z0-9_.:-], so no JSON escaping
  // is needed; std::map keeps the export deterministically sorted.
  const auto stats = tenant_stats();
  std::ostringstream os;
  os << "{\"tenants\":[";
  bool first = true;
  for (const auto& [name, t] : stats) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << name << "\",\"connections\":" << t.connections
       << ",\"batches\":" << t.batches << ",\"reads\":" << t.reads
       << ",\"alignments\":" << t.alignments
       << ",\"sam_bytes\":" << t.sam_bytes << ",\"errors\":" << t.errors
       << ",\"align_s\":" << t.align_s
       << ",\"gate_wait_s\":" << t.gate_wait_s << "}";
  }
  os << "]}";
  return os.str();
}

void Daemon::reap_finished_connections() {
  const std::lock_guard lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->th.joinable()) (*it)->th.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace mera::serve
