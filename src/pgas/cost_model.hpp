// LogGP-style communication cost model.
//
// The physical container has a single core, so parallel performance cannot be
// observed as wall-clock time. Instead each rank *accounts* every one-sided
// operation it issues (message count, bytes, atomicity, on/off node) and this
// model converts the tally into seconds the way an interconnect would:
// time = latency + bytes / bandwidth, with remote atomics paying an extra
// round-trip. Compute time is measured separately per rank via
// CLOCK_THREAD_CPUTIME_ID (valid even when threads are oversubscribed onto
// one core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mera::pgas {

struct CostModel {
  // Same-node remote rank (shared-memory transport).
  double node_latency_s = 0.25e-6;
  double node_bandwidth_Bps = 12.0e9;
  // Off-node (network transport). Defaults loosely follow Cray Aries
  // small-message latency (~1.3 us) and per-link bandwidth.
  double net_latency_s = 1.6e-6;
  double net_bandwidth_Bps = 7.0e9;
  // Extra time for a remote atomic (fetch-and-add needs a round trip).
  double atomic_extra_s = 1.0e-6;

  /// Modeled time of one one-sided transfer of `bytes` bytes.
  [[nodiscard]] double transfer_time(bool off_node, std::size_t bytes) const {
    if (off_node)
      return net_latency_s + static_cast<double>(bytes) / net_bandwidth_Bps;
    return node_latency_s + static_cast<double>(bytes) / node_bandwidth_Bps;
  }

  /// Modeled time of one global atomic op against rank `off_node?remote:local`.
  [[nodiscard]] double atomic_time(bool off_node) const {
    return transfer_time(off_node, 8) + (off_node ? atomic_extra_s : 0.0);
  }

  /// Defaults above: Cray XC30 / Aries-like machine.
  static CostModel cray_xc30_like() { return CostModel{}; }

  /// All-zero model: pure-correctness tests that must not depend on timing.
  /// Infinite bandwidth makes bytes/bandwidth exactly 0.0.
  static CostModel zero() {
    CostModel m;
    m.node_latency_s = m.net_latency_s = m.atomic_extra_s = 0.0;
    m.node_bandwidth_Bps = m.net_bandwidth_Bps =
        std::numeric_limits<double>::infinity();
    return m;
  }
};

/// Per-rank tally of one-sided traffic plus the modeled time it cost.
struct CommStats {
  std::uint64_t local_ops = 0;    ///< ops against data the rank itself owns
  std::uint64_t node_msgs = 0;    ///< one-sided msgs to another rank, same node
  std::uint64_t node_bytes = 0;
  std::uint64_t net_msgs = 0;     ///< one-sided msgs off node
  std::uint64_t net_bytes = 0;
  std::uint64_t atomics = 0;      ///< global atomic ops (any distance)
  double comm_time_s = 0.0;       ///< modeled seconds for all of the above

  [[nodiscard]] std::uint64_t remote_msgs() const noexcept {
    return node_msgs + net_msgs;
  }
  [[nodiscard]] std::uint64_t remote_bytes() const noexcept {
    return node_bytes + net_bytes;
  }

  CommStats& operator+=(const CommStats& o) noexcept {
    local_ops += o.local_ops;
    node_msgs += o.node_msgs;
    node_bytes += o.node_bytes;
    net_msgs += o.net_msgs;
    net_bytes += o.net_bytes;
    atomics += o.atomics;
    comm_time_s += o.comm_time_s;
    return *this;
  }
  friend CommStats operator-(CommStats a, const CommStats& b) noexcept {
    a.local_ops -= b.local_ops;
    a.node_msgs -= b.node_msgs;
    a.node_bytes -= b.node_bytes;
    a.net_msgs -= b.net_msgs;
    a.net_bytes -= b.net_bytes;
    a.atomics -= b.atomics;
    a.comm_time_s -= b.comm_time_s;
    return a;
  }
};

}  // namespace mera::pgas
