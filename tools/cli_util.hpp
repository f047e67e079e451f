// Minimal flag parsing shared by the command-line tools, plus the one
// mapping from aligner flags to IndexConfig/SessionConfig and the one
// sharded-reference builder that meraligner and meralignerd both use.
#pragma once

#include <charconv>
#include <cstdlib>
#include <system_error>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "align/batch_sw.hpp"
#include "align/extension.hpp"
#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "obs/log.hpp"
#include "pgas/runtime.hpp"
#include "seq/fasta.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"

namespace mera::tools {

/// A bad invocation (unknown flag, missing required flag, malformed value).
/// Tools catch this separately from runtime errors so they can print the
/// usage text and exit with a distinct status.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          flags_[a.substr(2, eq - 2)].push_back(a.substr(eq + 1));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[a.substr(2)].push_back(argv[++i]);
        } else {
          flags_[a.substr(2)].push_back("1");  // boolean flag
        }
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }
  /// Last occurrence wins for single-valued flags.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second.back();
  }
  /// The flag's value as a whole decimal integer: "31x", "4.5", "" or an
  /// out-of-range value is a usage error naming the flag.
  [[nodiscard]] long get_int(const std::string& name, long def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::string& s = it->second.back();
    long v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size() || s.empty())
      throw UsageError("flag --" + name + " expects an integer, got '" + s +
                       "'");
    return v;
  }
  [[nodiscard]] std::string require(const std::string& name) const {
    const auto it = flags_.find(name);
    if (it == flags_.end())
      throw UsageError("missing required flag --" + name);
    return it->second.back();
  }
  /// Every occurrence of a repeatable flag, in command-line order.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& name) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? std::vector<std::string>{} : it->second;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Reject flags outside `known` (and stray positional arguments) instead of
  /// silently ignoring them.
  void check_known(std::initializer_list<std::string_view> known) const {
    for (const auto& [name, values] : flags_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == name;
      if (!ok) throw UsageError("unknown flag --" + name);
    }
    if (!positional_.empty())
      throw UsageError("unexpected argument '" + positional_.front() + "'");
  }

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

/// --sw-isa: validated here so a typo or a tier this machine can't run is a
/// usage error up front, not a mid-run exception from the first batch.
inline align::SwIsa parse_sw_isa(const std::string& name) {
  const auto isa = align::parse_isa(name);
  if (!isa)
    throw UsageError("--sw-isa expects auto|scalar|sse2|avx2|avx512, got '" +
                     name + "'");
  if (!align::isa_supported(*isa))
    throw UsageError(
        "--sw-isa " + name +
        ": tier not available (not compiled in or not supported by this CPU)");
  return *isa;
}

/// The @PG CL field: the invocation verbatim, space-separated.
inline std::string command_line_of(int argc, char** argv) {
  std::string cl;
  for (int i = 0; i < argc; ++i) {
    if (i) cl += ' ';
    cl += argv[i];
  }
  return cl;
}

/// Index and session configuration of an aligner invocation.
struct AlignerFlags {
  core::IndexConfig index;
  core::SessionConfig session;
};

/// Map the index/session flags meraligner and meralignerd share (--k, --S,
/// --fragment-len, --max-hits, --sw-isa, the --no-* switches and
/// --cache-admission) onto their configs, with the tools' defaults.
inline AlignerFlags aligner_flags(const Args& args) {
  AlignerFlags f;
  core::IndexConfig& icfg = f.index;
  icfg.k = static_cast<int>(args.get_int("k", 51));
  icfg.buffer_S = static_cast<std::size_t>(args.get_int("S", 1000));
  icfg.fragment_len =
      static_cast<std::size_t>(args.get_int("fragment-len", 1024));
  icfg.exact_match = !args.has("no-exact");
  icfg.aggregating_stores = !args.has("no-aggregation");

  core::SessionConfig& scfg = f.session;
  // A seed with no hit to keep could never seed an alignment; a negative
  // count would wrap to unlimited.
  const long max_hits = args.get_int("max-hits", 32);
  if (max_hits < 1)
    throw UsageError("--max-hits must be >= 1, got " + args.get("max-hits"));
  scfg.max_hits_per_seed = static_cast<std::size_t>(max_hits);
  scfg.exact_match = icfg.exact_match;
  scfg.seed_cache = !args.has("no-seed-cache");
  scfg.target_cache = !args.has("no-target-cache");
  scfg.permute_queries = !args.has("no-permute");
  if (args.has("sw-isa")) scfg.extension.isa = parse_sw_isa(args.get("sw-isa"));
  scfg.cache_admission = args.has("cache-admission");
  return f;
}

/// What --shards / repeated --targets / --shard-parallel ask for.
struct ShardFlags {
  long shards = 0;         ///< --shards K as given (0 = absent)
  bool sharded = false;    ///< K >= 2 or more than one --targets file
  int parallel = 0;        ///< --shard-parallel J (0 = auto)
};

inline ShardFlags shard_flags(const Args& args, std::size_t target_files) {
  ShardFlags f;
  f.shards = args.get_int("shards", 0);
  if (args.has("shards") && f.shards < 1)
    throw UsageError("--shards must be >= 1");
  if (target_files > 1 && f.shards != 0 &&
      f.shards != static_cast<long>(target_files))
    throw UsageError(
        "--shards conflicts with repeated --targets (one shard per file)");
  f.sharded = target_files > 1 || f.shards > 1;
  // --shard-parallel sizes the shard executor; without shards it would be a
  // silent no-op. 0/negative (and non-numeric, via get_int) are errors — "no
  // parallelism" is spelled --shard-parallel 1.
  if (args.has("shard-parallel")) {
    if (!f.sharded)
      throw UsageError(
          "--shard-parallel requires a sharded reference (--shards K or "
          "repeated --targets)");
    const long j = args.get_int("shard-parallel", 0);
    if (j < 1)
      throw UsageError("--shard-parallel must be >= 1, got " +
                       args.get("shard-parallel"));
    f.parallel = static_cast<int>(j);
  }
  return f;
}

/// The sharded reference a validated sharded invocation (see shard_flags)
/// asks for: one shard per FASTA when --targets repeats, otherwise --shards K
/// planned over the one --targets collection.
/// The planner makes at most one shard per target; a smaller K than asked
/// for is reported as a warning.
inline shard::ShardedReference build_sharded_reference(
    pgas::Runtime& rt, const Args& args, const core::IndexConfig& icfg) {
  const std::vector<std::string> target_files = args.get_all("targets");
  if (target_files.size() > 1)
    return shard::ShardedReference::build_from_fastas(rt, target_files, icfg);
  shard::ShardPlanOptions popt;
  popt.shards = static_cast<int>(args.get_int("shards", 0));
  popt.k = icfg.k;
  const auto targets = seq::read_fasta(target_files[0]);
  auto ref = shard::ShardedReference::build(
      rt, targets, shard::plan_shards(targets, popt), icfg);
  if (ref.num_shards() != popt.shards)
    obs::Log::warn(
        "warning: --shards %d clamped to %d (one "
        "shard per target is the maximum)",
        popt.shards, ref.num_shards());
  return ref;
}

}  // namespace mera::tools
