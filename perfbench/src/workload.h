// Shared pieces of the benchmark's workloads: run options, the outcome a run
// reports (operations attempted/failed plus metrics), clocks, the seeded
// scenario, and the correctness checks every workload applies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "digest.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Pinned render digests (digests.txt).
  std::string digests_path;
  /// Scratch directory for stores and spill files.
  std::string work_dir;
  /// Where a traced run writes its span report.
  std::string trace_dir;
  /// Thread-pool size and upper bound on serve clients: the CPUs this
  /// process may run on.
  std::size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Every check is one attempted operation; a failed
/// check is printed as it happens and counted.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);

/// The workload seed applied to a preset: every measurement-campaign seed
/// (scanner, ping mesh, vantage points, PTR corpus, IXP registry,
/// traceroute, peering study, capacity) is offset by its own odd multiple of
/// `seed`. The ground truth (topology, deployment, TLS population) stays the
/// preset's, so the amount of work is alike across seeds. Seed 0 is the
/// preset scenario itself.
repro::Scenario seeded_scenario(repro::Scale scale, std::uint64_t seed);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Counts every recorded StageHealth as one operation; any status other
/// than ok is a failure.
void check_stage_health(const repro::Pipeline& pipeline, Outcome& out);

/// Folds the render checks of a run into its outcome.
void add_tally(const CheckTally& tally, Outcome& out);

/// The latency metrics every workload prints: queries per second over the
/// measured time, and the median and tail latency of the queries that were
/// answered by computing (`miss_ms`).
void add_query_metrics(Outcome& out, std::size_t queries, double measured_s,
                       const std::vector<double>& miss_ms);

enum class BatchKind { kReport, kPeering };

Outcome run_batch(const Options& options, const DigestBook& book,
                  BatchKind kind);
Outcome run_serve(const Options& options, const DigestBook& book);

/// Prints "key digest" for every render the serve workload can ask for
/// (each query at every xi fresh_xis can draw), from store-less batch
/// renders: the serve_xi_sweep lines of digests.txt.
void print_serve_digests();

}  // namespace perfbench
