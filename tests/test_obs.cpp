// The obs observability layer: metrics registry, tracer, and the contract
// that observability changes seconds, never bytes.
//
// Covered here:
//   - Counter: N threads hammering one counter concurrently, total exact.
//   - Histogram: Prometheus `le` bucket-edge semantics, bad bounds rejected.
//   - MetricsRegistry: find-or-create identity, label-distinct series, kind
//     mismatch rejected, JSON export parses, Prometheus exposition shape.
//   - Tracer/Span: Chrome Trace Event JSON parses, spans nest per thread
//     (inner interval inside outer, same tid; different threads get
//     different tids), disabled mode records nothing.
//   - Bit-identity: a sharded --shard-parallel-style batch emits the same
//     SAM bytes with the tracer enabled as disabled, and the registry ends
//     up holding per-shard walls, imbalance ratios, cache counters and
//     per-tier SW call/cell counts.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "obs/clock.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pgas/runtime.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using namespace mera;
using mera::obs::Counter;
using mera::obs::Gauge;
using mera::obs::Histogram;
using mera::obs::Labels;
using mera::obs::MetricsRegistry;
using mera::obs::Span;
using mera::obs::Tracer;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker — enough to prove that the
// exports are well-formed JSON (Perfetto/chrome://tracing require no more of
// the trace file than that plus the traceEvents shape, asserted separately).
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c(s);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.i_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') { ++i_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++i_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') { ++i_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    for (; *lit; ++lit, ++i_)
      if (i_ >= s_.size() || s_[i_] != *lit) return false;
    return true;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// One trace event pulled back out of the writer's one-event-per-line format.
struct TraceEvent {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint32_t tid = 0;
};

std::vector<TraceEvent> parse_trace_events(const std::string& json) {
  std::vector<TraceEvent> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_pos = line.find("{\"name\":\"");
    if (name_pos == std::string::npos) continue;
    TraceEvent e;
    const auto name_end = line.find('"', name_pos + 9);
    e.name = line.substr(name_pos + 9, name_end - (name_pos + 9));
    const auto grab = [&line](const char* key) -> std::uint64_t {
      const auto p = line.find(key);
      EXPECT_NE(p, std::string::npos) << key << " missing in: " << line;
      return p == std::string::npos
                 ? 0
                 : std::strtoull(line.c_str() + p + std::strlen(key), nullptr,
                                 10);
    };
    e.ts = grab("\"ts\":");
    e.dur = grab("\"dur\":");
    e.tid = static_cast<std::uint32_t>(grab("\"tid\":"));
    out.push_back(std::move(e));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(ObsCounter, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  // Doubles hold integers exactly up to 2^53; 160k increments must not lose
  // a single one regardless of stripe assignment or interleaving.
  EXPECT_EQ(c.value(), static_cast<double>(kThreads) * kAddsPerThread);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(4.5);
  EXPECT_EQ(g.value(), 4.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 5.0);
}

TEST(ObsHistogram, BucketEdgesUseLeSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  // v <= bound lands in that bucket: exactly-on-edge goes LOW, not high.
  h.observe(1.0);   // bucket le=1
  h.observe(1.5);   // bucket le=2
  h.observe(2.0);   // bucket le=2 (edge)
  h.observe(5.0);   // bucket le=5 (edge)
  h.observe(5.01);  // +Inf
  h.observe(-3.0);  // below the first bound -> le=1
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 1.0, -3.0
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);  // 5.0
  EXPECT_EQ(counts[3], 1u);  // 5.01
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 5.0 + 5.01 - 3.0);
}

TEST(ObsHistogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsRegistry, FindOrCreateReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  // Different labels = different series.
  Counter& c = reg.counter("x_total", {{"k", "v"}});
  EXPECT_NE(&a, &c);
}

TEST(ObsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("thing");
  EXPECT_THROW(reg.gauge("thing"), std::logic_error);
  EXPECT_THROW(reg.histogram("thing", {1.0}), std::logic_error);
}

TEST(ObsRegistry, ValueOfFindsExactSeries) {
  MetricsRegistry reg;
  reg.counter("hits_total", {{"cache", "seed"}}).add(7);
  double v = 0.0;
  EXPECT_TRUE(reg.value_of("hits_total", {{"cache", "seed"}}, v));
  EXPECT_EQ(v, 7.0);
  EXPECT_FALSE(reg.value_of("hits_total", {{"cache", "target"}}, v));
  EXPECT_FALSE(reg.value_of("nope", {}, v));
}

TEST(ObsRegistry, JsonExportIsValidJson) {
  MetricsRegistry reg;
  reg.counter("c_total", {{"lbl", "with \"quotes\" and \\slash"}}).add(3);
  reg.gauge("g").set(1.25);
  reg.histogram("h_seconds", {0.1, 1.0}).observe(0.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"h_seconds\""), std::string::npos);
}

TEST(ObsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("reqs_total", {{"code", "200"}}, "Requests").add(5);
  reg.gauge("depth").set(2);
  reg.histogram("lat_seconds", {0.1, 1.0}).observe(0.05);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP reqs_total Requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("reqs_total{code=\"200\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  // Histogram expands to cumulative _bucket series plus _sum/_count.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 0.05\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledModeRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.reset();
  ASSERT_FALSE(tracer.enabled());
  {
    Span outer("should-not-appear");
    Span inner("nor-this");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_TRUE(JsonChecker::valid(os.str())) << os.str();
  EXPECT_TRUE(parse_trace_events(os.str()).empty());
}

TEST(ObsTrace, SpansNestPerThread) {
  Tracer& tracer = Tracer::global();
  tracer.reset();
  tracer.enable();
  {
    Span outer("outer");
    {
      Span inner("inner");
      // Make the intervals distinguishable at 1 us resolution.
      const obs::StopWatch sw;
      while (sw.elapsed_s() < 0.002) {
      }
    }
  }
  std::thread other([] { Span t("other-thread"); });
  other.join();
  tracer.disable();

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  const auto events = parse_trace_events(json);
  ASSERT_EQ(events.size(), 3u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* other_ev = nullptr;
  for (const auto& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "other-thread") other_ev = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other_ev, nullptr);
  // Same thread => same row; inner interval strictly inside outer's.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
  EXPECT_GE(inner->dur, 1000u);  // the 2 ms busy-wait
  // The other thread gets its own row.
  EXPECT_NE(other_ev->tid, outer->tid);
  tracer.reset();
}

TEST(ObsTrace, EnableResetsPreviousSession) {
  Tracer& tracer = Tracer::global();
  tracer.reset();
  tracer.enable();
  { Span s("first-session"); }
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.enable();  // new session: prior events dropped
  EXPECT_EQ(tracer.event_count(), 0u);
  { Span s("second-session"); }
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.reset();
}

TEST(ObsLog, LevelRoundTrip) {
  const auto prev = obs::Log::level();
  obs::Log::set_level(obs::LogLevel::kError);
  EXPECT_EQ(obs::Log::level(), obs::LogLevel::kError);
  obs::Log::set_level(prev);
  EXPECT_EQ(obs::Log::level(), prev);
}

// ---------------------------------------------------------------------------
// End-to-end: observability never changes output bytes, and a sharded batch
// populates the load-balance / cache / SW series the roadmap consumers need.
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<seq::SeqRecord> contigs;
  std::vector<seq::SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth,
                       std::uint64_t seed = 29) {
  Workload w;
  seq::GenomeParams gp;
  gp.length = genome_len;
  gp.repeat_fraction = 0.02;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = depth;
  rp.error_rate = 0.005;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  w.reads = simulate_reads(genome, rp);
  return w;
}

core::IndexConfig small_index(int k = 21) {
  core::IndexConfig ic;
  ic.k = k;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

/// One sharded, shard-parallel batch -> SAM string.
std::string sharded_sam(const Workload& w, int nshards, int parallelism) {
  // 4 ranks on 2 nodes: off-node lookups exist, so the caches see traffic.
  pgas::Runtime rt(pgas::Topology(4, 2));
  auto ref =
      shard::ShardedReference::build(rt, w.contigs, nshards, small_index());
  core::SessionConfig sc;
  sc.exact_match = false;       // the Lemma-1 short-circuit is per shard
  sc.max_hits_per_seed = 4096;  // no per-shard truncation
  shard::ShardedAlignSession session(
      std::move(ref), shard::ShardedSessionConfig{sc, parallelism});
  std::ostringstream sam;
  core::SamStreamSink sink(sam, session.reference().sam_targets(), rt.nranks());
  session.align_batch(rt, w.reads, sink);
  return sam.str();
}

TEST(ObsEndToEnd, ShardedSamBitIdenticalWithTracingOnOrOff) {
  const Workload w = make_workload(120'000, 1.0);

  Tracer::global().reset();
  const std::string unobserved = sharded_sam(w, 2, 2);

  Tracer::global().reset();
  Tracer::global().enable();
  const std::string observed = sharded_sam(w, 2, 2);
  Tracer::global().disable();

  // Observability changes seconds, never bytes.
  EXPECT_EQ(observed, unobserved);

  // The traced run actually recorded a timeline, and it is valid JSON with
  // the phase and shard spans on it.
  std::ostringstream os;
  Tracer::global().write_chrome_trace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonChecker::valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"phase:align\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.batch\""), std::string::npos);
  EXPECT_NE(json.find("\"session.batch\""), std::string::npos);
  EXPECT_NE(json.find("\"shard 0 align\""), std::string::npos);
  Tracer::global().reset();
}

TEST(ObsEndToEnd, ShardedBatchPopulatesRegistry) {
  const Workload w = make_workload(120'000, 1.0);
  auto& reg = MetricsRegistry::global();

  // The registry is process-global and append-only, so assert on deltas.
  const auto value_or_zero = [&reg](const std::string& name,
                                    const Labels& labels) {
    double v = 0.0;
    (void)reg.value_of(name, labels, v);  // absent series reads as 0
    return v;
  };
  // The SW series of the default config: labelled with its resolved tier.
  const core::SessionConfig defaults;
  const Labels sw_labels{
      {"isa", align::isa_name(align::resolve_isa(defaults.extension.isa))}};
  const double calls_before = value_or_zero("mera_sw_calls_total", sw_labels);
  const double cells_before = value_or_zero("mera_sw_cells_total", sw_labels);
  const double hits_before =
      value_or_zero("mera_cache_hits_total", {{"cache", "seed"}}) +
      value_or_zero("mera_cache_misses_total", {{"cache", "seed"}});

  const std::string sam = sharded_sam(w, 2, 2);
  ASSERT_FALSE(sam.empty());

  double v = 0.0;
  // Per-shard wall times and both imbalance ratios (the paper's
  // load-balance table, measured and predicted).
  ASSERT_TRUE(reg.value_of("mera_shard_wall_seconds", {{"shard", "0"}}, v));
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(reg.value_of("mera_shard_wall_seconds", {{"shard", "1"}}, v));
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(reg.value_of("mera_shard_imbalance_measured", {}, v));
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(reg.value_of("mera_shard_imbalance_predicted", {}, v));
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(reg.value_of("mera_shard_parallelism", {}, v));
  EXPECT_EQ(v, 2.0);

  // Per-tier SW work flowed through the bridge.
  const double calls_after = value_or_zero("mera_sw_calls_total", sw_labels);
  const double cells_after = value_or_zero("mera_sw_cells_total", sw_labels);
  EXPECT_GT(calls_after, calls_before);
  EXPECT_GT(cells_after, cells_before);

  // Cache lookups were accounted (hits + misses strictly grew: the session
  // ran with caches on and remote lookups happened).
  const double hits_after =
      value_or_zero("mera_cache_hits_total", {{"cache", "seed"}}) +
      value_or_zero("mera_cache_misses_total", {{"cache", "seed"}});
  EXPECT_GT(hits_after, hits_before);

  // Phase seconds bridged from the PhaseReport.
  ASSERT_TRUE(
      reg.value_of("mera_phase_cpu_seconds_total", {{"phase", "align"}}, v));
  EXPECT_GT(v, 0.0);

  // The whole registry still exports as valid JSON and Prometheus text.
  std::ostringstream js, prom;
  reg.write_json(js);
  EXPECT_TRUE(JsonChecker::valid(js.str()));
  reg.write_prometheus(prom);
  EXPECT_NE(prom.str().find("# TYPE mera_sw_calls_total counter"),
            std::string::npos);
}

}  // namespace
