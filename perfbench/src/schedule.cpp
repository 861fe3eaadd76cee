#include "schedule.h"

#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t bound) { return next() % bound; }

std::string_view query_name(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kTable1: return "table1";
    case QueryKind::kSection421: return "section421";
    case QueryKind::kTable2: return "table2";
    case QueryKind::kFigure2: return "figure2";
  }
  return "table1";
}

std::vector<double> fresh_xis(std::uint64_t seed, std::size_t count) {
  if (count > kFreshXiCount) {
    throw std::invalid_argument("fresh_xis: at most 95 distinct values");
  }
  SplitMix64 rng(seed ^ 0x78697300ULL);
  std::set<int> taken = {10, 90};  // hundredths the store already holds
  std::vector<double> out;
  while (out.size() < count) {
    const int hundredths = 2 + static_cast<int>(rng.below(97));  // 2..98
    if (!taken.insert(hundredths).second) continue;
    out.push_back(hundredths / 100.0);
  }
  return out;
}

std::vector<ScheduledQuery> build_schedule(std::uint64_t seed,
                                           std::size_t xi_queries,
                                           std::size_t repeats_per_key) {
  SplitMix64 rng(seed ^ 0x7363686564ULL);
  std::vector<ScheduledQuery> firsts;
  firsts.push_back({QueryKind::kTable1, 0.0, 0, false});
  firsts.push_back({QueryKind::kSection421, 0.0, 0, false});
  for (const double xi : fresh_xis(seed, xi_queries)) {
    const QueryKind kind =
        rng.below(2) == 0 ? QueryKind::kTable2 : QueryKind::kFigure2;
    firsts.push_back({kind, xi, 0, false});
  }
  for (std::size_t i = firsts.size(); i > 1; --i) {
    std::swap(firsts[i - 1], firsts[rng.below(i)]);
  }

  std::vector<ScheduledQuery> schedule;
  schedule.reserve(firsts.size() * (1 + repeats_per_key));
  for (std::size_t key = 0; key < firsts.size(); ++key) {
    firsts[key].key = key;
    schedule.push_back(firsts[key]);
    for (std::size_t r = 0; r < repeats_per_key; ++r) {
      ScheduledQuery again = firsts[rng.below(key + 1)];
      again.repeat = true;
      schedule.push_back(again);
    }
  }
  return schedule;
}

}  // namespace perfbench
