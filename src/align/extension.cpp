#include "align/extension.hpp"

#include <algorithm>

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

std::vector<std::pair<std::string, std::string>> sw_metric_labels(
    const ExtensionConfig& cfg) {
  return {{"isa", isa_name(resolve_isa(cfg.isa))}};
}

}  // namespace mera::align
