// Appendix-A data cleaning: discard unresponsive IPs, discard IPs whose
// latencies cannot come from a single location (speed-of-light test against
// the known vantage-point geometry), and keep only ISPs with enough fully-
// responsive vantage points for accurate clustering.
#pragma once

#include <cstddef>
#include <vector>

#include "mlab/ping_mesh.h"

namespace repro {

struct FilterConfig {
  /// Minimum number of vantage points with successful measurements to all
  /// of an ISP's offnets (the paper uses 100 of the 163 M-Lab sites).
  std::size_t min_usable_sites = 100;

  /// The speed-of-light check tests all pairs among this many lowest-RTT
  /// vantage points per IP (violations always involve two low-RTT but
  /// mutually distant VPs, so the screen loses nothing and is ~30x faster
  /// than the full pairwise test).
  std::size_t sol_check_candidates = 24;

  /// Slack added to the speed-of-light bound (ms) for measurement error.
  double sol_tolerance_ms = 0.0;
};

/// Result of cleaning one ISP's latency matrix.
struct FilteredMatrix {
  /// Row indices (into the original matrix) that survived.
  std::vector<std::size_t> kept_rows;
  /// Column (VP) indices usable for clustering: finite for all kept rows.
  std::vector<std::size_t> kept_cols;
  /// Compact matrix: kept_rows.size() x kept_cols.size(), all finite.
  std::vector<double> rtt;

  std::size_t dropped_unresponsive = 0;
  std::size_t dropped_impossible = 0;

  /// Failed measurements (kNoMeasurement) that made it into the compact
  /// matrix anyway. By construction of kept_cols this must stay 0; a
  /// nonzero value means a filter invariant broke and NaNs would have
  /// silently poisoned trimmed_manhattan. Also exported as the
  /// `filters.nonfinite_leaked` obs counter.
  std::size_t nonfinite_leaked = 0;

  /// False when kept_cols.size() < min_usable_sites (ISP excluded).
  bool usable = false;

  double at(std::size_t row, std::size_t col) const {
    return rtt[row * kept_cols.size() + col];
  }
  std::size_t row_count() const noexcept { return kept_rows.size(); }
  std::size_t col_count() const noexcept { return kept_cols.size(); }
};

/// True if the IP's RTT vector is impossible for a single location: some
/// pair of vantage points i, j has rtt_i/2 + rtt_j/2 < propagation(d(i,j)).
bool violates_speed_of_light(const std::vector<double>& rtts,
                             const VantagePointSet& vps,
                             const FilterConfig& config);

/// Applies all Appendix-A filters to one ISP's matrix.
FilteredMatrix clean_matrix(const LatencyMatrix& matrix,
                            const VantagePointSet& vps,
                            const FilterConfig& config);

}  // namespace repro
