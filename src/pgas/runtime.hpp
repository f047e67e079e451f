// UPC-like SPMD runtime.
//
// Runtime::run(body) launches `nranks` threads, each bound to a Rank context.
// All ranks share one address space (this is one process), so "one-sided"
// communication is a plain memory copy — but every access to data owned by a
// *different* rank must be announced via Rank::get()/put()/charge_*() so that
// traffic is tallied and the LogGP cost model can convert it into simulated
// communication time. Ownership is a protocol, not an enforcement: the data
// structures built on top (distributed hash table, target store, caches)
// route every remote touch through these calls.
//
// Synchronization primitives mirror UPC: barrier(), global atomics
// (GlobalCounter ~ upc atomic fetchadd domain), and collective phase()
// boundaries used for time accounting.
#pragma once

#include <atomic>
#include <barrier>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pgas/cost_model.hpp"
#include "pgas/phase_timer.hpp"
#include "pgas/topology.hpp"

namespace mera::pgas {

class Runtime;

/// A global atomic counter with an owning rank; fetch_add from another rank
/// pays the remote-atomic cost (cf. upc atomic fetchadd used for the
/// local-shared stack pointers in Section III-A).
class GlobalCounter {
 public:
  GlobalCounter() : GlobalCounter(0, 0) {}
  explicit GlobalCounter(int owner, std::uint64_t init = 0)
      : owner_(owner), value_(init) {}

  /// Re-home the counter (single-threaded setup code only).
  void reset(int owner, std::uint64_t v = 0) noexcept {
    owner_ = owner;
    value_.store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] int owner() const noexcept { return owner_; }
  [[nodiscard]] std::uint64_t load_unsync() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Rank;
  int owner_;
  std::atomic<std::uint64_t> value_;
};

/// Per-thread SPMD execution context. Not copyable; passed by reference into
/// the rank body.
class Rank {
 public:
  Rank(Runtime& rt, int id) : rt_(&rt), id_(id) {}
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int node() const noexcept;
  [[nodiscard]] int nranks() const noexcept;
  [[nodiscard]] const Topology& topo() const noexcept;
  [[nodiscard]] Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept;

  /// Collective barrier across all ranks.
  void barrier();

  /// Collective: close the current accounting phase and open a new one.
  /// Includes a barrier (phases are bulk-synchronous).
  void phase(std::string_view name);

  // --- one-sided operations -------------------------------------------------

  /// Account one one-sided message of `bytes` against data owned by `owner`.
  void charge_access(int owner, std::size_t bytes);

  /// Account an extra modeled delay (e.g. I/O service time) without traffic.
  void charge_time(double seconds);

  /// One-sided get: copy `n` elements owned by rank `owner` into local `dst`.
  template <typename T>
  void get(int owner, const T* src, T* dst, std::size_t n) {
    charge_access(owner, n * sizeof(T));
    std::memcpy(dst, src, n * sizeof(T));
  }

  /// One-sided put: copy `n` local elements into memory owned by `owner`.
  /// The destination must be quiescent or disjoint per writer (the DHT's
  /// aggregating store reserves disjoint slots via atomic_fetch_add first).
  template <typename T>
  void put(int owner, const T* src, T* dst, std::size_t n) {
    charge_access(owner, n * sizeof(T));
    std::memcpy(dst, src, n * sizeof(T));
  }

  /// Global atomic fetch-and-add (cf. atomic_fetchadd() in the paper).
  std::uint64_t atomic_fetch_add(GlobalCounter& c, std::uint64_t delta);

  // --- accounting -----------------------------------------------------------

  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }
  /// CPU seconds consumed by this rank since it started.
  [[nodiscard]] double cpu_seconds() const noexcept {
    return thread_cpu_seconds() - cpu_origin_;
  }

 private:
  friend class Runtime;
  void begin_execution();
  void close_phase();

  Runtime* rt_;
  int id_;
  CommStats stats_;
  CommStats phase_stats_origin_;
  double cpu_origin_ = 0.0;
  double phase_cpu_origin_ = 0.0;
  /// Trace-span bookkeeping: sampled once per run at begin_execution so a
  /// mid-run enable()/disable() can't produce half-open spans. Phase CPU
  /// accounting itself never depends on the tracer.
  bool tracing_ = false;
  std::uint64_t phase_wall_origin_us_ = 0;
  std::string current_phase_ = "startup";
  std::vector<PhaseSample> samples_;
};

/// The simulated PGAS machine: topology + cost model + collective machinery.
class Runtime {
 public:
  Runtime(Topology topo, CostModel model = CostModel::cray_xc30_like());

  [[nodiscard]] const Topology& topo() const noexcept { return topo_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return model_; }
  [[nodiscard]] int nranks() const noexcept { return topo_.nranks(); }

  /// Launch the SPMD body on every rank and join. Any exception thrown by a
  /// rank is rethrown here (first one wins). May be called multiple times;
  /// each run() starts fresh accounting.
  void run(const std::function<void(Rank&)>& body);

  /// Phase report of the most recent run().
  [[nodiscard]] const PhaseReport& report() const noexcept { return report_; }

 private:
  friend class Rank;

  Topology topo_;
  CostModel model_;
  std::barrier<> barrier_;
  std::vector<std::vector<PhaseSample>> samples_;  // per rank
  PhaseReport report_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// Convenience wrapper: build a Runtime, run the body, return the report.
PhaseReport spmd(int nranks, int ppn, const std::function<void(Rank&)>& body,
                 CostModel model = CostModel::cray_xc30_like());

}  // namespace mera::pgas
