// Shared helpers of the end-to-end benchmark: order statistics, the metric
// table every mode prints, the key/value file a child process reports
// through, the bench-side trace reader, and the host stamp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace e2e {

using mera::obs::now_s;

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order, printed as the benchmark's result
/// object: {"name": {"value": v, "unit": "u"}, ...}.
class MetricTable {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& rows() const noexcept {
    return rows_;
  }
  /// False when any value is NaN or infinite: those have no JSON spelling,
  /// and a metric that is not a number is a failed measurement.
  [[nodiscard]] bool all_finite() const;
  /// Non-finite values are written as null (valid JSON, never a number).
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> rows_;
};

/// Every digit a double carries (runs are compared at full precision).
[[nodiscard]] std::string format_number(double v);

/// What one benchmark run prints: its metrics and the operation count.
/// An operation is one batch; it fails when it throws, is answered with an
/// Error frame, or its SAM fails the check.
struct RunResult {
  MetricTable metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< why the run is not correct

  void problem(std::string what) { problems.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const {
    return failed == 0 && problems.empty() && metrics.all_finite();
  }
};

/// A child process reports to its parent through a file of lines
/// `key v1 v2 ...`; metric rows are `metric name value unit`.
class KvFile {
 public:
  void put(const std::string& key, const std::vector<double>& values);
  void put(const std::string& key, double value) { put(key, std::vector{value}); }
  void metric(const Metric& m) { metrics_.push_back(m); }
  void write(const std::string& path) const;  ///< throws on I/O failure
  [[nodiscard]] static KvFile read(const std::string& path);

  [[nodiscard]] const std::vector<double>& get(const std::string& key) const;
  [[nodiscard]] double get1(const std::string& key) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::vector<Metric> metrics_;
};

/// One complete ("X") event of a Chrome trace written by obs::Tracer.
struct TraceEvent {
  std::string name;
  std::string cat;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Reads back obs::Tracer::write_chrome_trace output (one event per line).
[[nodiscard]] std::vector<TraceEvent> parse_chrome_trace(std::string_view json);

/// Per-name totals of the bench-side spans (category "bench"): count, total
/// seconds, and self seconds — a span's duration minus the part of it that
/// spans nested inside it on the same thread cover.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::map<std::string, SpanTotals> bench_span_totals(
    const std::vector<TraceEvent>& events);

/// Host, resolved SW ISA tier, hardware_concurrency, build type and git sha,
/// as one JSON object (stamped on every result file the benchmark writes).
[[nodiscard]] std::string host_stamp_json();

}  // namespace e2e
