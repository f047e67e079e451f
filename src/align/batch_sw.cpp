#include "align/batch_sw.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "align/batch_sw_detail.hpp"
#include "align/sw_engine.hpp"

namespace mera::align {

namespace {

// __builtin_cpu_supports needs a string literal, hence one probe per tier.
#if defined(__x86_64__) || defined(__i386__)
bool cpu_has_sse2() noexcept { return __builtin_cpu_supports("sse2"); }
bool cpu_has_avx2() noexcept { return __builtin_cpu_supports("avx2"); }
bool cpu_has_avx512() noexcept { return __builtin_cpu_supports("avx512bw"); }
#else
bool cpu_has_sse2() noexcept { return false; }
bool cpu_has_avx2() noexcept { return false; }
bool cpu_has_avx512() noexcept { return false; }
#endif

const detail::BatchKernel* kernel_for(SwIsa isa) noexcept {
  switch (isa) {
    case SwIsa::kSse2:
      return detail::batch_kernel_sse2();
    case SwIsa::kAvx2:
      return detail::batch_kernel_avx2();
    case SwIsa::kAvx512:
      return detail::batch_kernel_avx512();
    default:
      return nullptr;
  }
}

/// Can one traced sweep of an m x nmax group stay exact in int16? A cell's H
/// is a path score: at most min(m, nmax) substitutions of at most smax each
/// (gap penalties only subtract). E/F never drop below -2 * (gap_open +
/// gap_extend) and must stay clear of kTraceNegInf; the 1-based row/column
/// of the best cell is carried in int16 too.
bool trace16_fits(const Scoring& sc, std::size_t m, std::size_t nmax) {
  const int go = sc.gap_open + sc.gap_extend;
  const long smax = std::max({sc.match, sc.mismatch, 0});
  return sc.gap_open >= 0 && sc.gap_extend >= 0 &&
         go <= detail::kTraceMaxGapOpen && sc.mismatch > -20000 &&
         m <= 32767 && nmax <= 32767 &&
         smax * static_cast<long>(std::min(m, nmax)) <= 32767;
}

std::string supported_tier_list() {
  std::string s = "scalar";
  for (SwIsa isa : {SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512})
    if (isa_supported(isa)) s += std::string("|") + isa_name(isa);
  return s;
}

}  // namespace

const char* isa_name(SwIsa isa) noexcept {
  switch (isa) {
    case SwIsa::kAuto:
      return "auto";
    case SwIsa::kScalar:
      return "scalar";
    case SwIsa::kSse2:
      return "sse2";
    case SwIsa::kAvx2:
      return "avx2";
    case SwIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

std::optional<SwIsa> parse_isa(std::string_view name) noexcept {
  if (name == "auto") return SwIsa::kAuto;
  if (name == "scalar") return SwIsa::kScalar;
  if (name == "sse2") return SwIsa::kSse2;
  if (name == "avx2") return SwIsa::kAvx2;
  if (name == "avx512") return SwIsa::kAvx512;
  return std::nullopt;
}

bool isa_supported(SwIsa isa) noexcept {
  switch (isa) {
    case SwIsa::kAuto:
    case SwIsa::kScalar:
      return true;
    case SwIsa::kSse2:
      return kernel_for(isa) != nullptr && cpu_has_sse2();
    case SwIsa::kAvx2:
      return kernel_for(isa) != nullptr && cpu_has_avx2();
    case SwIsa::kAvx512:
      return kernel_for(isa) != nullptr && cpu_has_avx512();
  }
  return false;
}

SwIsa detect_isa() noexcept {
  for (SwIsa isa : {SwIsa::kAvx512, SwIsa::kAvx2, SwIsa::kSse2})
    if (isa_supported(isa)) return isa;
  return SwIsa::kScalar;
}

SwIsa resolve_isa(SwIsa isa) {
  if (isa == SwIsa::kAuto) return detect_isa();
  if (!isa_supported(isa))
    throw std::invalid_argument(
        std::string("SW ISA '") + isa_name(isa) +
        "' is not available (not compiled in or not supported by this CPU; "
        "this host supports " +
        supported_tier_list() + ")");
  return isa;
}

std::size_t isa_lanes16(SwIsa isa) {
  const SwIsa resolved = resolve_isa(isa);
  const detail::BatchKernel* k =
      resolved == SwIsa::kScalar ? nullptr : kernel_for(resolved);
  return k == nullptr ? 1 : static_cast<std::size_t>(k->lanes16);
}

std::string isa_support_summary() {
  std::string s = "SW dispatch tiers in this build on this CPU:\n";
  for (SwIsa isa :
       {SwIsa::kScalar, SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512}) {
    const bool ok = isa_supported(isa);
    const detail::BatchKernel* k = kernel_for(isa);
    s += "  ";
    s += isa_name(isa);
    for (std::size_t pad = std::string(isa_name(isa)).size(); pad < 8; ++pad)
      s += ' ';
    if (isa == SwIsa::kScalar) {
      s += "supported (reference; 1 candidate per sweep)\n";
    } else if (ok) {
      s += "supported (" + std::to_string(k->lanes16) +
           " candidates per sweep)\n";
    } else if (k == nullptr) {
      s += "not compiled into this binary\n";
    } else {
      s += "not supported by this CPU\n";
    }
  }
  s += "auto resolves to: ";
  s += isa_name(detect_isa());
  s += "\n";
  return s;
}

void LaneStats::record_group(std::size_t filled, std::size_t width) noexcept {
  if (width == 0) return;
  ++groups;
  lanes_filled += filled;
  lanes_wasted += width - filled;
  // Octile index for occupancy in (i/8, (i+1)/8]: ceil(8*f/w) - 1.
  std::size_t idx =
      filled == 0 ? 0 : (filled * kOccBuckets + width - 1) / width - 1;
  occupancy[std::min(idx, kOccBuckets - 1)] += 1;
}

double LaneStats::mean_occupancy() const noexcept {
  const std::uint64_t total = lanes_filled + lanes_wasted;
  return total == 0 ? 0.0
                    : static_cast<double>(lanes_filled) /
                          static_cast<double>(total);
}

LaneStats& LaneStats::operator+=(const LaneStats& o) noexcept {
  flushes += o.flushes;
  groups += o.groups;
  lanes_filled += o.lanes_filled;
  lanes_wasted += o.lanes_wasted;
  for (std::size_t i = 0; i < kOccBuckets; ++i) occupancy[i] += o.occupancy[i];
  return *this;
}

BatchSwScorer::BatchSwScorer(const Scoring& sc, SwIsa isa)
    : sc_(sc), isa_(resolve_isa(isa)) {
  pad_safe_ = sc_.mismatch <= 0 && sc_.gap_open >= 0 && sc_.gap_extend >= 0;
}

BatchSwScorer::BatchSwScorer(std::span<const std::uint8_t> query_codes,
                             const Scoring& sc, SwIsa isa)
    : BatchSwScorer(sc, isa) {
  add_query(query_codes);
}

std::size_t BatchSwScorer::add_query(
    std::span<const std::uint8_t> query_codes) {
  std::string key(reinterpret_cast<const char*>(query_codes.data()),
                  query_codes.size());
  const auto [it, inserted] = query_ids_.try_emplace(key, queries_.size());
  if (inserted) queries_.emplace_back(query_codes.begin(), query_codes.end());
  return it->second;
}

std::size_t BatchSwScorer::add(std::size_t qid,
                               std::span<const std::uint8_t> target_codes) {
  if (qid >= queries_.size())
    throw std::out_of_range("BatchSwScorer::add: unknown query id");
  offs_.push_back(pool_.size());
  lens_.push_back(target_codes.size());
  qids_.push_back(qid);
  pool_.insert(pool_.end(), target_codes.begin(), target_codes.end());
  return lens_.size() - 1;
}

std::size_t BatchSwScorer::add(std::span<const std::uint8_t> target_codes) {
  if (queries_.empty())
    throw std::logic_error(
        "BatchSwScorer::add(target): no query registered (use the "
        "single-query constructor or add_query first)");
  return add(std::size_t{0}, target_codes);
}

std::vector<LocalAlignment> BatchSwScorer::flush(TraceScratch& s) {
  const std::size_t n = lens_.size();
  // Empty query/target lanes keep the default result, as smith_waterman
  // returns for empty inputs.
  std::vector<LocalAlignment> out(n);
  std::vector<std::size_t> live;
  for (std::size_t c = 0; c < n; ++c)
    if (lens_[c] > 0 && !queries_[qids_[c]].empty()) live.push_back(c);
  if (!live.empty()) ++lane_stats_.flushes;

  const auto target_span = [&](std::size_t c) {
    return std::span<const std::uint8_t>(pool_.data() + offs_[c], lens_[c]);
  };
  const auto align_per_pair = [&](std::size_t c) {
    out[c] = smith_waterman(queries_[qids_[c]], target_span(c), sc_);
  };

  const detail::BatchKernel* kernel =
      isa_ == SwIsa::kScalar ? nullptr : kernel_for(isa_);
  const std::size_t L =
      kernel == nullptr ? 1 : static_cast<std::size_t>(kernel->lanes16);
  int best[64];  // >= every tier's lanes16
  std::size_t best_i[64], best_j[64];
  for (std::size_t g = 0; g < live.size(); g += L) {
    const std::size_t gn = std::min(L, live.size() - g);
    std::size_t nmax = 0, nmin = SIZE_MAX, mmax = 0, mmin = SIZE_MAX;
    for (std::size_t l = 0; l < gn; ++l) {
      const std::size_t c = live[g + l];
      nmax = std::max(nmax, lens_[c]);
      nmin = std::min(nmin, lens_[c]);
      mmax = std::max(mmax, queries_[qids_[c]].size());
      mmin = std::min(mmin, queries_[qids_[c]].size());
    }
    // Padding is only provably inert for pad-safe scoring; an exotic
    // scheme sweeps only groups with no padded cells in live lanes.
    const bool padded = mmin != mmax || nmin != nmax;
    if (kernel == nullptr || (!pad_safe_ && padded) ||
        !trace16_fits(sc_, mmax, nmax) ||
        mmax * nmax * L > TraceScratch::kTraceProvBudget) {
      for (std::size_t l = 0; l < gn; ++l) align_per_pair(live[g + l]);
      continue;
    }
    s.tbuf.assign(nmax * L, static_cast<std::int16_t>(detail::kTargetPadCode));
    s.qbuf.assign(mmax * L, static_cast<std::int16_t>(detail::kQueryPadCode));
    for (std::size_t l = 0; l < gn; ++l) {
      const std::size_t c = live[g + l];
      const std::uint8_t* src = pool_.data() + offs_[c];
      for (std::size_t j = 0; j < lens_[c]; ++j)
        s.tbuf[j * L + l] = static_cast<std::int16_t>(src[j]);
      const auto& q = queries_[qids_[c]];
      for (std::size_t i = 0; i < q.size(); ++i)
        s.qbuf[i * L + l] = static_cast<std::int16_t>(q[i]);
    }
    if (s.h.size() < nmax * L) {
      s.h.resize(nmax * L);
      s.f.resize(nmax * L);
    }
    if (s.prov.size() < mmax * nmax * L) s.prov.resize(mmax * nmax * L);

    detail::BatchTrace16Args args;
    args.qbuf = s.qbuf.data();
    args.m = mmax;
    args.tbuf = s.tbuf.data();
    args.nmax = nmax;
    args.match = sc_.match;
    args.mismatch = sc_.mismatch;
    args.gap_open_total = sc_.gap_open + sc_.gap_extend;
    args.gap_extend = sc_.gap_extend;
    args.h = s.h.data();
    args.f = s.f.data();
    args.prov = s.prov.data();
    args.best = best;
    args.best_i = best_i;
    args.best_j = best_j;
    kernel->trace16(args);
    lane_stats_.record_group(gn, L);

    const std::uint8_t* const prov = s.prov.data();
    for (std::size_t l = 0; l < gn; ++l) {
      const std::size_t c = live[g + l];
      detail::sw_traceback(
          std::span<const std::uint8_t>(queries_[qids_[c]]), target_span(c),
          best[l], best_i[l], best_j[l],
          [prov, nmax, L, l](std::size_t i, std::size_t j) {
            return prov[((i - 1) * nmax + (j - 1)) * L + l];
          },
          out[c]);
    }
  }

  pool_.clear();
  offs_.clear();
  lens_.clear();
  qids_.clear();
  return out;
}

std::vector<LocalAlignment> BatchSwScorer::flush() {
  TraceScratch scratch;
  return flush(scratch);
}

}  // namespace mera::align
