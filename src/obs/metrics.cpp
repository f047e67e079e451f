#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace mera::obs {

namespace detail {

std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kStripes;
  return mine;
}

}  // namespace detail

namespace {

/// Shortest round-trippable representation; JSON and Prometheus both accept
/// plain decimal/scientific notation.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest form that still parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

std::string escape(const std::string& s) {
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

}  // namespace

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first + "=\"" + escape(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly ascending");
}

void Histogram::observe(double v) noexcept { observe_n(v, 1); }

void Histogram::observe_n(double v, std::uint64_t n) noexcept {
  if (n == 0) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, Kind kind,
    const std::string& help, std::vector<double> bounds) {
  const std::string key = name + render_labels(labels);
  const std::scoped_lock lk(mu_);
  const auto it = series_.find(key);
  if (it != series_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("MetricsRegistry: '" + name +
                             "' already registered as a different metric kind");
    return it->second;
  }
  Series s;
  s.name = name;
  s.labels = labels;
  s.kind = kind;
  s.help = help;
  // The instrument is born with its series, under the lock: two threads
  // registering the same new series must not both construct it.
  switch (kind) {
    case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      s.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return series_.emplace(key, std::move(s)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels,
                                  const std::string& help) {
  return *find_or_create(name, labels, Kind::kCounter, help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return *find_or_create(name, labels, Kind::kGauge, help).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const Labels& labels,
                                      const std::string& help) {
  return *find_or_create(name, labels, Kind::kHistogram, help,
                         std::move(bounds))
              .histogram;
}

bool MetricsRegistry::value_of(const std::string& name, const Labels& labels,
                               double& out) const {
  const std::string key = name + render_labels(labels);
  const std::scoped_lock lk(mu_);
  const auto it = series_.find(key);
  if (it == series_.end()) return false;
  switch (it->second.kind) {
    case Kind::kCounter: out = it->second.counter->value(); return true;
    case Kind::kGauge: out = it->second.gauge->value(); return true;
    case Kind::kHistogram: out = it->second.histogram->sum(); return true;
  }
  return false;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::scoped_lock lk(mu_);
  const auto labels_json = [](const Labels& labels) {
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) out += ", ";
      out += '"';
      out += escape(labels[i].first);
      out += "\": \"";
      out += escape(labels[i].second);
      out += '"';
    }
    return out + "}";
  };
  os << "{\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, s] : series_) {
    if (s.kind != Kind::kCounter) continue;
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << escape(s.name)
       << "\", \"labels\": " << labels_json(s.labels)
       << ", \"value\": " << num(s.counter->value()) << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"gauges\": [";
  first = true;
  for (const auto& [key, s] : series_) {
    if (s.kind != Kind::kGauge) continue;
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << escape(s.name)
       << "\", \"labels\": " << labels_json(s.labels)
       << ", \"value\": " << num(s.gauge->value()) << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"histograms\": [";
  first = true;
  for (const auto& [key, s] : series_) {
    if (s.kind != Kind::kHistogram) continue;
    const Histogram& h = *s.histogram;
    const auto counts = h.bucket_counts();
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << escape(s.name)
       << "\", \"labels\": " << labels_json(s.labels) << ", \"buckets\": [";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      cumulative += counts[b];
      os << (b ? ", " : "") << "{\"le\": "
         << (b < h.bounds().size() ? num(h.bounds()[b]) : "\"+Inf\"")
         << ", \"count\": " << cumulative << "}";
    }
    os << "], \"count\": " << h.count() << ", \"sum\": " << num(h.sum())
       << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  const std::scoped_lock lk(mu_);
  // One # TYPE line per family (metric name), emitted before its first
  // series; std::map iteration groups a family's series contiguously.
  std::string last_family;
  const auto family_header = [&](const Series& s, const char* type) {
    if (s.name == last_family) return;
    last_family = s.name;
    if (!s.help.empty()) os << "# HELP " << s.name << ' ' << s.help << '\n';
    os << "# TYPE " << s.name << ' ' << type << '\n';
  };
  for (const auto& [key, s] : series_) {
    switch (s.kind) {
      case Kind::kCounter:
        family_header(s, "counter");
        os << s.name << render_labels(s.labels) << ' '
           << num(s.counter->value()) << '\n';
        break;
      case Kind::kGauge:
        family_header(s, "gauge");
        os << s.name << render_labels(s.labels) << ' '
           << num(s.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        family_header(s, "histogram");
        const Histogram& h = *s.histogram;
        const auto counts = h.bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          cumulative += counts[b];
          Labels with_le = s.labels;
          with_le.emplace_back(
              "le", b < h.bounds().size() ? num(h.bounds()[b]) : "+Inf");
          os << s.name << "_bucket" << render_labels(with_le) << ' '
             << cumulative << '\n';
        }
        os << s.name << "_sum" << render_labels(s.labels) << ' '
           << num(h.sum()) << '\n';
        os << s.name << "_count" << render_labels(s.labels) << ' ' << h.count()
           << '\n';
        break;
      }
    }
  }
}

}  // namespace mera::obs
