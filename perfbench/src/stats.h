// Order statistics the benchmark reports: medians of repeated timings and the
// latency percentiles of the serve workload.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Conventional median (mean of the two middle values for an even count);
/// 0 when empty. Used for per-run aggregates such as wall and set-up time.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in [0, 100]; 0 when empty.
double percentile(std::vector<double> values, double p);

/// A latency tail: the highest percentile that still has at least
/// `kTailBeyond` samples above it, so the figure rests on more than a few
/// outliers. With fewer than 2 * kTailBeyond samples that percentile would
/// sit below the median; the tail is then the median itself (percentile 50).
struct Tail {
  double percentile = 0.0;  // which percentile `value` is
  double value = 0.0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

Tail tail_latency(std::vector<double> values);

}  // namespace perfbench
