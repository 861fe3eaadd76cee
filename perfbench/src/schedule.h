// The serve workload's query schedule: a fixed, seeded list of report queries
// that the client threads drain in a closed loop. Everything here is a pure
// function of (seed, sizes), so two runs with one seed send the same queries
// in the same order and the service's compute/hit counts repeat exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so that schedules do not move
/// when the program's RNG changes.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

enum class QueryKind { kTable1, kSection421, kTable2, kFigure2 };

std::string_view query_name(QueryKind kind) noexcept;

struct ScheduledQuery {
  QueryKind kind = QueryKind::kTable1;
  /// The xi of a table2/figure2 query; 0 for the others.
  double xi = 0.0;
  /// Which distinct render this query asks for (index into the first
  /// occurrences, in schedule order of first appearance).
  std::size_t key = 0;
  /// False for the first query of a key (the service must compute it),
  /// true for a later one (answered from the render cache).
  bool repeat = false;
};

/// How many distinct xi values fresh_xis can draw.
inline constexpr std::size_t kFreshXiCount = 95;

/// `count` (at most kFreshXiCount) distinct xi values in [0.02, 0.98] on a
/// 0.01 grid, never the 0.1 / 0.9 pair the warm store already holds.
/// Prefix-stable: the first k values for a seed do not depend on `count`.
std::vector<double> fresh_xis(std::uint64_t seed, std::size_t count);

/// The schedule: one first-contact table1 and section421 query plus
/// `xi_queries` table2/figure2 queries, each at its own fresh xi, in seeded
/// order; every first occurrence is followed by `repeats_per_key` repeats of
/// keys already issued.
std::vector<ScheduledQuery> build_schedule(std::uint64_t seed,
                                           std::size_t xi_queries,
                                           std::size_t repeats_per_key);

}  // namespace perfbench
