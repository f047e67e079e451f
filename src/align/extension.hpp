// Seed extension settings and the seed's target window (Section II-D).
//
// The seed fixes the alignment's diagonal, so only a small target window
// around the implied query placement needs to be examined: the window is the
// query's projected span padded by `window_pad` bases on each side. Callers
// project the window here, then align the query against the window's codes:
// core::AlignSession through the pooled batch engine (many candidates per
// traced sweep on the configured ISA tier; the scalar tier runs
// smith_waterman one pair at a time), the pMap-style baseline through
// smith_waterman.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

struct ExtensionConfig {
  Scoring scoring{};
  /// Extra target bases examined on each side of the query's projected span
  /// (allows for indels near the read ends).
  std::size_t window_pad = 16;
  /// Dispatch tier of the batch engine's traced sweep (kAuto = the widest
  /// the CPU supports; kScalar runs smith_waterman per candidate, the
  /// reference every other tier reproduces field for field).
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
/// extract the window codes every tier aligns against (an alignment's
/// t_begin/t_end are then window-relative; add begin for target
/// coordinates).
[[nodiscard]] SeedWindow project_seed_window(std::size_t query_len,
                                             const seq::PackedSeq& target,
                                             std::size_t q_off,
                                             std::size_t t_off,
                                             std::size_t window_pad) noexcept;

/// Labels of the SW metric series: {isa}, the resolved dispatch tier. The
/// one rule the session and the daemon use.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
sw_metric_labels(const ExtensionConfig& cfg);

}  // namespace mera::align
