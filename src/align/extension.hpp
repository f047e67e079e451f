// Seed extension settings and the seed's target window (Section II-D).
//
// The seed fixes the alignment's diagonal, so only a small target window
// around the implied query placement needs to be examined: the window is the
// query's projected span padded by `window_pad` bases on each side. Callers
// project the window here, then align the query against the window's codes:
// core::AlignSession through either kernel below (the scalar reference one
// pair at a time, the batch SIMD engine many candidates per sweep), the
// pMap-style baseline through smith_waterman.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

/// Which Smith-Waterman kernel performs the in-window alignment. Selectable
/// per ExtensionConfig (and therefore per aligning batch) without rebuilding
/// anything.
enum class SwKernel : std::uint8_t {
  /// Exact full-window DP with affine-gap traceback (sw_engine) — reference.
  kFullDP = 0,
  /// Inter-candidate batch SIMD traced sweep (batch_sw): candidate windows
  /// are packed one-per-lane and aligned in one 16-bit DP sweep on the
  /// widest available ISA (see ExtensionConfig::isa), which records a
  /// provenance byte per lane per cell; each lane's traceback then yields
  /// the alignment kFullDP produces, field for field. The default.
  kBatch,
};

struct ExtensionConfig {
  Scoring scoring{};
  /// Extra target bases examined on each side of the query's projected span
  /// (allows for indels near the read ends).
  std::size_t window_pad = 16;
  /// In-window alignment kernel.
  SwKernel kernel = SwKernel::kBatch;
  /// Dispatch tier for SwKernel::kBatch (kAuto = the widest the CPU
  /// supports). Ignored by kFullDP.
  SwIsa isa = SwIsa::kAuto;
};

/// Target window implied by a seed: the query's projected span on the seed
/// diagonal, padded by window_pad and clipped to the target. begin >= end
/// means no window (query projects entirely off the target).
struct SeedWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Compute the seed's target window: callers account sw_cells from it and
/// extract the window codes every kernel aligns against (an alignment's
/// t_begin/t_end are then window-relative; add begin for target
/// coordinates).
[[nodiscard]] SeedWindow project_seed_window(std::size_t query_len,
                                             const seq::PackedSeq& target,
                                             std::size_t q_off,
                                             std::size_t t_off,
                                             std::size_t window_pad) noexcept;

/// Stable lowercase kernel tag for reports and metric labels.
[[nodiscard]] constexpr const char* kernel_name(SwKernel k) noexcept {
  switch (k) {
    case SwKernel::kFullDP: return "full_dp";
    case SwKernel::kBatch: return "batch";
  }
  return "unknown";
}

/// Labels of the per-kernel SW metric series: {kernel, isa}, where isa is
/// the resolved dispatch tier for kBatch and "native" for kFullDP, which
/// does not dispatch. The one rule both the session and the daemon use.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
sw_metric_labels(const ExtensionConfig& cfg);

}  // namespace mera::align
