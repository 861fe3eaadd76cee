// Per-ISP colocation clustering (Section 3.2): run the ping campaign through
// the Appendix-A filters, cluster the surviving offnet IPs with OPTICS, and
// derive the paper's colocation statistics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/optics.h"
#include "hypergiant/deployment.h"
#include "mlab/filters.h"
#include "mlab/ping_mesh.h"

namespace repro {

/// Outcome of clustering one ISP at one xi setting.
struct IspClustering {
  AsIndex isp = kInvalidIndex;
  /// False when the ISP failed the >= min_usable_sites filter.
  bool usable = false;

  /// Per surviving offnet IP: its registry server index and cluster label
  /// (-1 = not assigned to any cluster, i.e. not colocated with anything).
  std::vector<std::size_t> registry_indices;
  std::vector<int> labels;
  int cluster_count = 0;

  std::size_t dropped_unresponsive = 0;
  std::size_t dropped_impossible = 0;
  std::size_t usable_sites = 0;
};

/// Colocation of one hypergiant's offnets within one ISP.
struct HgColocation {
  std::size_t total_ips = 0;      // surviving IPs of this hypergiant
  std::size_t colocated_ips = 0;  // in a cluster with another hypergiant's IP

  double fraction() const noexcept {
    return total_ips == 0 ? 0.0
                          : static_cast<double>(colocated_ips) /
                                static_cast<double>(total_ips);
  }
};

struct ColocationConfig {
  double xi = 0.1;
  std::size_t min_pts = 2;       // n_min of the paper's Appendix A
  double trim_fraction = 0.2;    // discrepant-VP trimming in the distance
  FilterConfig filter;
};

/// Runs the per-ISP clustering pipeline.
class ColocationClusterer {
 public:
  ColocationClusterer(const OffnetRegistry& registry, const PingMesh& mesh,
                      const VantagePointSet& vps, ColocationConfig config);

  /// Clusters one ISP's offnet IPs at the configured xi. Deterministic.
  IspClustering cluster_isp(AsIndex isp) const;

  /// Clusters one ISP at several xi values in one pass, sharing the ping
  /// matrix, the distance matrix and the OPTICS ordering (all of which are
  /// xi-independent). Much cheaper than calling cluster_isp per xi.
  std::vector<IspClustering> cluster_isp_multi(AsIndex isp,
                                               std::span<const double> xis) const;

  /// Same, but from an already-measured latency matrix for `isp` (the
  /// pipeline's warm path feeds store-loaded matrices here). Because the
  /// measurement is deterministic and the store round-trip preserves every
  /// bit (including NaN markers), the result is bit-identical to measuring.
  std::vector<IspClustering> cluster_isp_multi(AsIndex isp,
                                               std::span<const double> xis,
                                               LatencyMatrix premeasured) const;

  const ColocationConfig& config() const noexcept { return config_; }

 private:
  const OffnetRegistry& registry_;
  const PingMesh& mesh_;
  const VantagePointSet& vps_;
  ColocationConfig config_;
};

/// Colocation stats of `hg` inside a clustered ISP: an IP is colocated when
/// its cluster also contains an IP of a different hypergiant.
HgColocation colocation_of(const IspClustering& clustering,
                           const OffnetRegistry& registry, Hypergiant hg);

/// Number of inferred sites for `hg` in the ISP: distinct cluster labels
/// among its IPs, with each noise IP counting as its own site. Returns 0
/// when the hypergiant has no surviving IPs there.
int inferred_site_count(const IspClustering& clustering,
                        const OffnetRegistry& registry, Hypergiant hg);

/// Distinct hypergiants with at least one surviving IP in the clustering.
std::vector<Hypergiant> surviving_hypergiants(const IspClustering& clustering,
                                              const OffnetRegistry& registry);

}  // namespace repro
