// The traced run's per-layer view. Stages are forced one at a time through
// the pipeline's public accessors, so each call's time is that layer's self
// time; the clustering layer is then replayed from outside on one thread
// (measure -> clean_matrix -> pairwise_distances -> optics_order -> xi
// extraction) and checked against pipeline.clusterings(xi). Every timed call
// is wrapped in an obs::ScopedSpan, and the span tree is written out when
// the run ends.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

/// Opens a span and adds its wall time (ms) to `sink` when it closes.
class Timed {
 public:
  Timed(std::string_view span, double& sink)
      : span_(span), sink_(sink), start_(Clock::now()) {}
  ~Timed() { sink_ += ms_since(start_); }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  repro::obs::ScopedSpan span_;
  double& sink_;
  Clock::time_point start_;
};

/// One row of the per-layer table: the metric's value, the work behind it
/// (records, cells, pairs, ISPs ...) and the time the layer was busy.
struct LayerRow {
  double value = 0.0;
  double work = 0.0;
  double busy_ms = 0.0;
};

/// Every per-layer metric the benchmark defines, zero until set. A metric
/// whose layer does no work in a workload stays 0.
class LayerTable {
 public:
  LayerTable();

  /// Sets a metric by name; throws std::logic_error for an unknown name.
  void set(std::string_view name, double value, double work = 0.0,
           double busy_ms = 0.0);
  /// A time metric: value and busy time are both `ms`.
  void set_ms(std::string_view name, double ms, double work = 0.0) {
    set(name, ms, work, ms);
  }
  const LayerRow& get(std::string_view name) const;

  /// Prints one row per metric with its busy time as a share of
  /// `traced_wall_ms` and the end-to-end metric it should move.
  void print(double traced_wall_ms) const;
  void export_to(Outcome& out) const;

 private:
  std::vector<LayerRow> rows_;
};

/// Which stages a workload forces, in the order the traced run forces them.
/// Every workload ends with the S4.2.1 Google peering campaign.
struct StagePlan {
  bool snapshot_2021 = true;       // also the 2021 ground truth and scan
  bool all_methodologies = true;   // discovery x3 (Table 1) or x1
  double cluster_xi = 0.0;         // force clusterings(xi) when > 0
  bool ptr_store = false;
};

/// Forces the plan's stages on a freshly constructed pipeline, one at a
/// time, and records their self times and work counts in `layers`.
void force_stages(const repro::Pipeline& pipeline, const StagePlan& plan,
                  LayerTable& layers);

enum class MatrixSource {
  kMeasure,  // PingMesh::measure_isp (the cold path)
  kStore,    // Pipeline::isp_latency_matrix over a warm store
};

/// Replays the clustering layer for `isps` on the calling thread with the
/// pool at one thread, times each step, and compares the result with
/// pipeline.clustering_of(xi, isp) for every xi. Records mlab.*, cluster.*
/// and store.matrix_load_ms in `layers`, prints the clustering critical
/// path against `stage_ms` (the forced clusterings() wall on `threads`
/// threads), and counts each comparison as an operation in `out`.
void replay_clustering(const repro::Pipeline& pipeline,
                       const std::vector<repro::AsIndex>& isps,
                       std::span<const double> xis, MatrixSource source,
                       double stage_ms, std::size_t threads,
                       LayerTable& layers, Outcome& out);

/// Writes the recorded spans and metrics (obs run-report JSON) to `path`.
void write_trace(const std::string& path);

}  // namespace perfbench
