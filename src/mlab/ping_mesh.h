// Latency measurement simulation (Appendix A of the paper): ping every
// offnet IP from every vantage point with 8 probes and keep the second
// smallest RTT.
//
// RTT model per (vantage point, server):
//   rtt = great-circle propagation * path inflation
//       + per-(VP, facility) path offset   <- separates facilities: servers
//                                             in different buildings take
//                                             different upstream paths
//       + per-(VP, rack) offset (small)    <- servers behind different
//                                             top-of-rack switches/uplinks;
//                                             this is what makes xi = 0.1
//                                             conservative (it splits racks)
//                                             while xi = 0.9 merges a
//                                             facility into one cluster
//       + per-IP offset (tiny)             <- NIC/stack variation
//       + queueing jitter (per probe)      <- what the 2nd-of-8 suppresses
//
// Pathologies injected to exercise the paper's filters:
//   * unresponsive IPs (the paper discards 12K of 261K),
//   * "impossible" IPs whose probes answer from two different locations
//     (anycast/NAT artifacts; the paper discards 1.9K via speed-of-light),
//   * ICMP-rate-limited ISPs whose measurements mostly fail (the paper
//     keeps only ISPs with >= 100 fully-responsive vantage points).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "hypergiant/deployment.h"
#include "mlab/vantage_points.h"

namespace repro {

/// NaN marker for a failed measurement.
inline constexpr double kNoMeasurement = std::numeric_limits<double>::quiet_NaN();

struct PingConfig {
  std::uint64_t seed = 5150;
  int probes = 8;

  /// Path-inflation multiplier range applied to the speed-of-light RTT.
  double inflation_min = 1.25;
  double inflation_max = 1.9;

  /// Mean of the per-(VP, facility) exponential path offset (ms). This is
  /// the signal that lets OPTICS separate facilities in the same metro.
  double facility_offset_mean_ms = 4.0;

  /// Mean of the per-(VP, rack) exponential offset (ms): sub-facility
  /// structure that the conservative xi splits on.
  double rack_offset_mean_ms = 0.7;

  /// Half-width of the per-IP deterministic offset (ms).
  double per_ip_offset_ms = 0.05;

  /// Mean queueing jitter per probe (ms, exponential).
  double jitter_mean_ms = 1.0;

  /// Per-probe loss probability under normal conditions.
  double probe_loss = 0.02;

  /// Fraction of offnet IPs that never answer pings.
  double unresponsive_ip_rate = 0.046;

  /// Fraction of offnet IPs that answer from two locations (impossible-
  /// latency injection).
  double split_personality_rate = 0.0073;

  /// Fraction of ISPs that rate-limit ICMP so aggressively that most
  /// measurements fail (these ISPs fall below the 100-VP threshold).
  double icmp_limited_isp_rate = 0.06;
  double icmp_limited_failure = 0.65;

  // --- degraded-mode knobs (all off by default, so the paper behaviour is
  // --- bit-identical; a FaultPlan fills them in via fault::apply_ping_faults,
  // --- see docs/ROBUSTNESS.md) ---

  /// Extra salt for the fault pathologies below, so two fault plans over
  /// the same measurement seed draw independent outage/storm sets.
  std::uint64_t fault_seed = 0;

  /// Fraction of vantage points that are completely dark (site outage for
  /// the whole campaign).
  double vp_outage_rate = 0.0;

  /// Extra fraction of ISPs under an ICMP rate-limit storm, and the
  /// per-probe failure probability while storming.
  double icmp_storm_isp_rate = 0.0;
  double icmp_storm_failure = 0.9;

  /// Re-probe rounds for a (VP, IP) measurement whose probes failed
  /// transiently (fewer than 2 of `probes` answered). 0 reproduces the
  /// paper's single 8-probe round. Unresponsive IPs and dark VPs are
  /// deterministic outages and are never retried.
  int retry_budget = 0;
};

/// Row-major latency matrix for one ISP: rows = offnet IPs, cols = VPs.
struct LatencyMatrix {
  std::vector<Ipv4> ips;                    // row keys
  std::vector<std::size_t> server_indices;  // registry indices, same order
  std::size_t vp_count = 0;
  std::vector<double> rtt;                  // ips.size() x vp_count, NaN = fail

  double at(std::size_t row, std::size_t col) const {
    return rtt[row * vp_count + col];
  }
  std::size_t row_count() const noexcept { return ips.size(); }
};

/// Simulates the M-Lab ping campaign.
class PingMesh {
 public:
  PingMesh(const Internet& internet, const VantagePointSet& vps,
           PingConfig config);

  /// Measures all offnet servers of one ISP from every vantage point.
  LatencyMatrix measure_isp(const OffnetRegistry& registry, AsIndex isp) const;

  /// One (vp, server) measurement: second-smallest of `probes` RTT samples;
  /// NaN if fewer than two probes succeed or the IP is unresponsive.
  double measure_once(const VantagePoint& vp, const OffnetServer& server) const;

  /// Ground-truth pathology queries (tests and the appendix stats use them).
  bool ip_unresponsive(Ipv4 ip) const noexcept;
  bool ip_split_personality(Ipv4 ip) const noexcept;
  bool isp_icmp_limited(AsIndex isp) const noexcept;

  /// Injected-fault queries (false whenever the matching rate is zero).
  bool vp_dark(std::size_t vp_index) const noexcept;
  bool isp_storm_limited(AsIndex isp) const noexcept;

  const PingConfig& config() const noexcept { return config_; }

 private:
  double base_rtt_ms(const VantagePoint& vp, const OffnetServer& server,
                     FacilityIndex facility) const;

  const Internet& internet_;
  const VantagePointSet& vps_;
  PingConfig config_;
};

}  // namespace repro
