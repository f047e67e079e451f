// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, exportable as JSON or Prometheus text exposition format.
//
// The paper's whole argument is a performance narrative — per-phase seconds,
// cache hit rates, communication volumes, load-balance tables — but until now
// the repro only told that story through ad-hoc stderr prints. The registry
// is the structured, machine-readable form: every layer (executor, prefetch,
// session phases, caches, SW engines, shards) publishes into one process-wide
// namespace that the CLI dumps with --metrics and that later roadmap items
// (the multi-tenant daemon, the measured re-sharding planner, the cost-model
// stream scheduler) can read programmatically.
//
// Cost discipline: metric OBJECTS are cheap to update — a counter add is one
// relaxed atomic fetch_add on a per-thread-striped slot, so concurrent rank
// threads and pool workers never contend on a cache line. Registry LOOKUPS
// (name -> object) take a mutex and are meant for per-batch / per-task
// granularity, never per-seed hot loops; the per-read pipeline keeps counting
// into PipelineStats exactly as before and the session bridges the deltas
// here once per batch. Observability never touches alignment data: output is
// bit-identical with metrics hammered or idle.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mera::obs {

/// Metric labels, Prometheus-style: ordered (key, value) pairs. Two metrics
/// with the same name but different labels are distinct time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Stripe index of the calling thread: assigned round-robin on first use so
/// concurrent writers spread across slots instead of hammering slot 0.
[[nodiscard]] std::size_t thread_stripe() noexcept;
}  // namespace detail

/// Monotonically increasing value. Stored as a double so the same type
/// carries event counts (exact up to 2^53) and accumulated seconds.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(double delta) noexcept {
    slots_[detail::thread_stripe()].v.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  void inc() noexcept { add(1.0); }

  [[nodiscard]] double value() const noexcept {
    double sum = 0.0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  /// One cache line per slot so stripes never false-share.
  struct alignas(64) Slot {
    std::atomic<double> v{0.0};
  };
  std::array<Slot, kStripes> slots_;
};

/// Last-writer-wins instantaneous value (GCUPS, queue depth, imbalance).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: observation v lands
/// in the first bucket whose upper bound satisfies v <= bound; anything above
/// the last bound lands in the implicit +Inf bucket.
class Histogram {
 public:
  /// `bounds` must be strictly ascending (checked; throws std::invalid_argument).
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;
  /// Record `n` observations of value `v` in one shot — for bridging
  /// pre-aggregated histograms (e.g. the SW engine's per-batch lane
  /// occupancy octiles) without n round trips.
  void observe_n(double v, std::uint64_t n) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (bounds().size() + 1 entries; last is +Inf).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + 1 (+Inf)
  std::atomic<double> sum_{0.0};
};

/// The registry: name+labels -> metric object. Objects are created on first
/// use and live as long as the registry, so returned references are stable —
/// callers may cache them. `global()` is the process-wide instance every
/// instrumented layer publishes into; tests construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] static MetricsRegistry& global();

  /// Find-or-create. `help` is recorded on first registration (later calls
  /// may pass ""). Registering one name as two different kinds throws
  /// std::logic_error — a name is one metric type forever.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  /// `bounds` is used on first registration only; later lookups of the same
  /// series ignore it.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {}, const std::string& help = "");

  /// Value of a series if it exists (exact name + labels), for tests and
  /// programmatic consumers. Returns false when the series is absent.
  [[nodiscard]] bool value_of(const std::string& name, const Labels& labels,
                              double& out) const;

  /// { "counters": [ {"name":..,"labels":{..},"value":..}, ..],
  ///   "gauges": [..], "histograms": [ {.., "buckets":[{"le":..,"count":..}],
  ///   "count":.., "sum":..} ] } — series sorted by (name, labels) so the
  /// export is deterministic.
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition format v0.0.4 (one # TYPE line per family,
  /// histogram expanded into _bucket/_sum/_count).
  void write_prometheus(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Series {
    std::string name;
    Labels labels;
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& find_or_create(const std::string& name, const Labels& labels,
                         Kind kind, const std::string& help,
                         std::vector<double> bounds = {});

  mutable std::mutex mu_;
  /// Key = name + rendered labels; map gives the deterministic export order.
  std::map<std::string, Series> series_;
};

/// Render labels Prometheus-style: `{k="v",k2="v2"}`, "" when empty.
[[nodiscard]] std::string render_labels(const Labels& labels);

}  // namespace mera::obs
