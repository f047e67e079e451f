#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "align/batch_sw.hpp"

#ifndef E2E_GIT_SHA
#define E2E_GIT_SHA "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void MetricTable::add(std::string name, double value, std::string unit) {
  rows_.push_back({std::move(name), value, std::move(unit)});
}

bool MetricTable::all_finite() const {
  return std::all_of(rows_.begin(), rows_.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

std::string MetricTable::json() const {
  // Names and units are compile-time identifiers of this benchmark
  // ([A-Za-z0-9_./%-]), so they need no escaping.
  std::string out = "{";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Metric& m = rows_[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    out += std::isfinite(m.value) ? format_number(m.value) : "null";
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void KvFile::put(const std::string& key, const std::vector<double>& values) {
  auto& slot = values_[key];
  slot.insert(slot.end(), values.begin(), values.end());
}

void KvFile::write(const std::string& path) const {
  std::ofstream f(path);
  for (const auto& [key, values] : values_) {
    f << key;
    for (const double v : values) f << ' ' << format_number(v);
    f << '\n';
  }
  for (const Metric& m : metrics_)
    f << "metric " << m.name << ' ' << format_number(m.value) << ' ' << m.unit
      << '\n';
  f.flush();
  if (!f) throw std::runtime_error("cannot write " + path);
}

KvFile KvFile::read(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  KvFile kv;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "metric") {
      Metric m;
      is >> m.name >> m.value >> m.unit;
      if (is.fail()) throw std::runtime_error("malformed metric line: " + line);
      kv.metrics_.push_back(std::move(m));
      continue;
    }
    auto& slot = kv.values_[key];
    double v = 0.0;
    while (is >> v) slot.push_back(v);
  }
  return kv;
}

const std::vector<double>& KvFile::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw std::runtime_error("child result lacks '" + key + "'");
  return it->second;
}

double KvFile::get1(const std::string& key) const {
  const auto& v = get(key);
  if (v.size() != 1)
    throw std::runtime_error("child result '" + key + "' is not one value");
  return v.front();
}

namespace {

/// Value of `"key":` in one trace line: a string (unescaped as written by
/// obs::Tracer, which never emits escapes in our span names) or a number.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat = "\"";
  pat.append(key).append("\":");
  const auto at = line.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t b = at + pat.size();
  if (b < line.size() && line[b] == '"') {
    const auto e = line.find('"', b + 1);
    return e == std::string_view::npos ? std::string_view{}
                                       : line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

std::uint64_t to_u64(std::string_view s) {
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') throw std::runtime_error("bad trace number");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::vector<TraceEvent> parse_chrome_trace(std::string_view json) {
  std::vector<TraceEvent> out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    auto nl = json.find('\n', pos);
    if (nl == std::string_view::npos) nl = json.size();
    const std::string_view line = json.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find("\"ph\":\"X\"") == std::string_view::npos) continue;
    TraceEvent e;
    e.name = field(line, "name");
    e.cat = field(line, "cat");
    e.ts_us = to_u64(field(line, "ts"));
    e.dur_us = to_u64(field(line, "dur"));
    e.tid = static_cast<std::uint32_t>(to_u64(field(line, "tid")));
    out.push_back(std::move(e));
  }
  return out;
}

std::map<std::string, SpanTotals> bench_span_totals(
    const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> bench;
  for (const TraceEvent& e : events)
    if (e.cat == "bench") bench.push_back(&e);
  std::map<std::string, SpanTotals> out;
  for (const TraceEvent* s : bench) {
    const std::uint64_t b = s->ts_us, e = s->ts_us + s->dur_us;
    // Children: other bench spans on the same thread inside [b, e]. Their
    // union (grandchildren lie inside children) is what self time excludes.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const TraceEvent* c : bench) {
      if (c == s || c->tid != s->tid) continue;
      const std::uint64_t cb = c->ts_us, ce = c->ts_us + c->dur_us;
      if (cb >= b && ce <= e && (cb > b || ce < e)) kids.emplace_back(cb, ce);
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0, reach = b;
    for (const auto& [cb, ce] : kids) {
      const std::uint64_t from = std::max(cb, reach);
      if (ce > from) covered += ce - from;
      reach = std::max(reach, ce);
    }
    SpanTotals& t = out[s->name];
    ++t.count;
    t.total_s += static_cast<double>(s->dur_us) * 1e-6;
    t.self_s += static_cast<double>(s->dur_us - std::min(covered, s->dur_us)) *
                1e-6;
  }
  return out;
}

std::string host_stamp_json() {
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0) std::snprintf(host, sizeof host, "unknown");
  std::string isa;
  try {
    isa = mera::align::isa_name(mera::align::resolve_isa(mera::align::SwIsa::kAuto));
  } catch (const std::exception&) {
    isa = "invalid";
  }
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (!line.starts_with("model name")) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) cpu = line.substr(colon + 2);
    break;
  }
  for (char& c : cpu)
    if (c == '"' || c == '\\') c = ' ';
  std::ostringstream os;
  os << "{\"host\": \"" << host << "\", \"cpu\": \"" << cpu << "\", \"sw_isa\": \"" << isa
     << "\", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"git_sha\": \""
     << E2E_GIT_SHA << "\"}";
  return os.str();
}

}  // namespace e2e
