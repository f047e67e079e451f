#include "align/extension.hpp"

#include <algorithm>
#include <utility>

namespace mera::align {

SeedWindow project_seed_window(std::size_t query_len,
                               const seq::PackedSeq& target, std::size_t q_off,
                               std::size_t t_off,
                               std::size_t window_pad) noexcept {
  // diag0 = target position where query base 0 lands (may be negative when
  // the query hangs off the target's start).
  const std::ptrdiff_t diag0 = static_cast<std::ptrdiff_t>(t_off) -
                               static_cast<std::ptrdiff_t>(q_off);
  const auto pad = static_cast<std::ptrdiff_t>(window_pad);
  SeedWindow w;
  w.begin = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, diag0 - pad));
  w.end = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      diag0 + static_cast<std::ptrdiff_t>(query_len) + pad, 0,
      static_cast<std::ptrdiff_t>(target.size())));
  return w;
}

Extension extend_seed(std::span<const std::uint8_t> query,
                      const seq::PackedSeq& target, std::size_t q_off,
                      std::size_t t_off, int k, const ExtensionConfig& cfg) {
  Extension ext;
  const std::size_t m = query.size();
  if (m == 0 || target.empty() || k <= 0) return ext;

  const SeedWindow w =
      project_seed_window(m, target, q_off, t_off, cfg.window_pad);
  ext.window_begin = w.begin;
  ext.window_end = w.end;
  if (w.begin >= w.end) return ext;

  const auto window = dna_codes(target, w.begin, w.end - w.begin);
  switch (cfg.kernel) {
    case SwKernel::kBatch: {
      // Single-candidate route through the batch engine's traced sweep (one
      // live lane). Callers with many candidates should pool them through a
      // PooledExtensionQueue, which actually fills the SIMD lanes. The
      // sweep's buffers are per thread, like the scalar engine's.
      BatchSwScorer scorer(query, cfg.scoring, cfg.isa);
      scorer.add(window);
      thread_local TraceScratch scratch;
      ext.aln = std::move(scorer.flush(scratch).front());
      break;
    }
    case SwKernel::kFullDP:
      ext.aln = smith_waterman(query, window, cfg.scoring);
      break;
  }
  ext.aln.t_begin += w.begin;
  ext.aln.t_end += w.begin;
  return ext;
}

std::vector<std::pair<std::string, std::string>> sw_metric_labels(
    const ExtensionConfig& cfg) {
  return {{"kernel", kernel_name(cfg.kernel)},
          {"isa", cfg.kernel == SwKernel::kBatch
                      ? isa_name(resolve_isa(cfg.isa))
                      : "native"}};
}

}  // namespace mera::align
