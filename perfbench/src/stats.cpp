#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p among n samples, in [1, n].
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

Tail tail_latency(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t median_rank = nearest_rank(n, 50.0);
  // Rank k leaves exactly n - k samples above it.
  if (n >= kTailBeyond && n - kTailBeyond >= median_rank) {
    const std::size_t k = n - kTailBeyond;
    tail.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
    tail.value = values[k - 1];
  } else {
    tail.percentile = 50.0;
    tail.value = values[median_rank - 1];
  }
  return tail;
}

}  // namespace perfbench
