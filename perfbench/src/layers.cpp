#include "layers.h"

#include <cstdio>
#include <stdexcept>

#include "cluster/colocation.h"
#include "cluster/distance.h"
#include "cluster/optics.h"
#include "mlab/filters.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/thread_pool.h"

namespace perfbench {

using repro::AsIndex;
using repro::Methodology;
using repro::Snapshot;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric (and workload) it should move
};

// The per-layer metrics, in the order the traced run prints them. Keep in
// step with "per_layer" in BENCHMARK.json (run.py checks the names).
constexpr LayerMetric kLayerMetrics[] = {
    {"topology.generate_ms", "ms", "setup_s (all)"},
    {"hypergiant.deploy_ms", "ms", "wall_s peering_paper, report_paper"},
    {"tls.population_ms", "ms", "wall_s peering_paper, report_paper"},
    {"tls.endpoints", "count", "wall_s peering_paper, report_paper"},
    {"scan.scan_ms", "ms", "wall_s peering_paper, report_paper"},
    {"scan.records", "count", "wall_s peering_paper, report_paper"},
    {"scan.classify_ms", "ms", "wall_s peering_paper, report_paper"},
    {"scan.classify_passes", "count", "wall_s peering_paper, report_paper"},
    {"scan.offnet_ips", "count", "wall_s peering_paper, report_paper"},
    {"mlab.measure_ms", "ms", "wall_s report_paper"},
    {"mlab.cells", "count", "wall_s report_paper"},
    {"mlab.ns_per_cell", "ns", "wall_s report_paper"},
    {"mlab.filter_ms", "ms", "wall_s report_paper; miss_p50_ms serve"},
    {"mlab.ips_kept_ratio", "ratio", "wall_s report_paper"},
    {"cluster.stage_ms", "ms", "wall_s/peak_rss_mb report; qps/miss serve"},
    {"cluster.distance_ms", "ms", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.pairs", "count", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.ns_per_pair", "ns", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.optics_order_ms", "ms", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.xi_extract_ms", "ms", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.isps", "count", "wall_s report; qps/miss_p50_ms serve"},
    {"cluster.straggler_ms", "ms", "wall_s report; miss_p50_ms serve"},
    {"cluster.parallel_efficiency", "ratio", "wall_s report; qps serve"},
    {"route.peering_ms", "ms", "wall_s peering_paper, report_paper"},
    {"route.routes_to_ms", "ms", "wall_s peering_paper, report_paper"},
    {"route.tables", "count", "wall_s peering_paper, report_paper"},
    {"route.targets", "count", "wall_s peering_paper, report_paper"},
    {"rdns.ptr_ms", "ms", "wall_s report_paper"},
    {"rdns.validate_ms", "ms", "wall_s report_paper"},
    {"core.render_ms", "ms", "wall_s report_paper"},
    {"store.matrix_load_ms", "ms", "miss_p50_ms/qps serve"},
    {"store.hits", "count", "miss_p50_ms/qps serve"},
    {"store.misses", "count", "miss_p50_ms/qps serve"},
    {"store.saved", "count", "setup_s serve"},
    {"store.hit_ratio", "ratio", "miss_p50_ms/qps serve"},
    {"serve.render_hit_ratio", "ratio", "qps serve"},
    {"serve.pipeline_builds", "count", "qps serve"},
    {"serve.compute_queries", "count", "qps serve"},
    {"trace.overhead_ms", "ms", "(traced wall - untraced wall)"},
};

constexpr std::size_t kLayerCount = std::size(kLayerMetrics);

std::size_t index_of(std::string_view name) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (name == kLayerMetrics[i].name) return i;
  }
  throw std::logic_error("unknown per-layer metric " + std::string(name));
}

bool same_clustering(const repro::IspClustering& a,
                     const repro::IspClustering& b) {
  return a.isp == b.isp && a.usable == b.usable &&
         a.registry_indices == b.registry_indices && a.labels == b.labels &&
         a.cluster_count == b.cluster_count &&
         a.dropped_unresponsive == b.dropped_unresponsive &&
         a.dropped_impossible == b.dropped_impossible &&
         a.usable_sites == b.usable_sites;
}

double counter_value(std::string_view name) {
  return static_cast<double>(repro::obs::metrics().counter(name).value());
}

double histogram_sum(std::string_view name) {
  return repro::obs::metrics().histogram(name).sum();
}

}  // namespace

LayerTable::LayerTable() : rows_(kLayerCount) {}

void LayerTable::set(std::string_view name, double value, double work,
                     double busy_ms) {
  rows_[index_of(name)] = LayerRow{value, work, busy_ms};
}

const LayerRow& LayerTable::get(std::string_view name) const {
  return rows_[index_of(name)];
}

void LayerTable::print(double traced_wall_ms) const {
  std::printf("\n%-28s %14s %-6s %12s %11s %7s  %s\n", "per-layer metric",
              "value", "unit", "work", "busy ms", "share", "moves");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const LayerRow& row = rows_[i];
    const double share =
        traced_wall_ms > 0.0 ? row.busy_ms / traced_wall_ms : 0.0;
    std::printf("%-28s %14.3f %-6s %12.0f %11.1f %6.1f%%  %s\n",
                kLayerMetrics[i].name, row.value, kLayerMetrics[i].unit,
                row.work, row.busy_ms, 100.0 * share, kLayerMetrics[i].moves);
  }
  std::printf("(share = busy ms / traced wall %.1f ms)\n\n", traced_wall_ms);
}

void LayerTable::export_to(Outcome& out) const {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    out.add(kLayerMetrics[i].name, rows_[i].value, kLayerMetrics[i].unit);
  }
}

void force_stages(const repro::Pipeline& pipeline, const StagePlan& plan,
                  LayerTable& layers) {
  std::vector<Snapshot> snapshots = {Snapshot::k2023};
  if (plan.snapshot_2021) snapshots.insert(snapshots.begin(), Snapshot::k2021);

  double deploy_ms = 0.0;
  double servers = 0.0;
  for (const Snapshot s : snapshots) {
    Timed t("bench.registry", deploy_ms);
    servers += static_cast<double>(pipeline.registry(s).servers().size());
  }
  layers.set_ms("hypergiant.deploy_ms", deploy_ms, servers);

  double population_ms = 0.0;
  double endpoints = 0.0;
  for (const Snapshot s : snapshots) {
    Timed t("bench.population", population_ms);
    endpoints += static_cast<double>(pipeline.population(s).size());
  }
  layers.set_ms("tls.population_ms", population_ms, endpoints);
  layers.set("tls.endpoints", endpoints, endpoints, population_ms);

  double scan_ms = 0.0;
  double records = 0.0;
  for (const Snapshot s : snapshots) {
    Timed t("bench.scan_records", scan_ms);
    records += static_cast<double>(pipeline.scan_records(s).size());
  }
  layers.set_ms("scan.scan_ms", scan_ms, records);
  layers.set("scan.records", records, records, scan_ms);

  std::vector<std::pair<Snapshot, Methodology>> passes = {
      {Snapshot::k2023, Methodology::k2023}};
  if (plan.all_methodologies) {
    passes = {{Snapshot::k2021, Methodology::k2021},
              {Snapshot::k2023, Methodology::k2023},
              {Snapshot::k2023, Methodology::k2021}};
  }
  double classify_ms = 0.0;
  for (const auto& [s, m] : passes) {
    Timed t("bench.discovery", classify_ms);
    pipeline.discovery(s, m);
  }
  const double passes_n = static_cast<double>(passes.size());
  const double offnet_ips = static_cast<double>(
      pipeline.discovery(Snapshot::k2023, Methodology::k2023)
          .total_offnet_ips());
  layers.set_ms("scan.classify_ms", classify_ms, passes_n);
  layers.set("scan.classify_passes", passes_n, passes_n, classify_ms);
  layers.set("scan.offnet_ips", offnet_ips, offnet_ips, classify_ms);

  if (plan.cluster_xi > 0.0) {
    double cluster_ms = 0.0;
    std::size_t isps = 0;
    {
      Timed t("bench.clusterings", cluster_ms);
      pipeline.vantage_points();
      pipeline.ping_mesh();
      isps = pipeline.clusterings(plan.cluster_xi).size();
    }
    layers.set_ms("cluster.stage_ms", cluster_ms, static_cast<double>(isps));
  }

  if (plan.ptr_store) {
    double ptr_ms = 0.0;
    std::size_t ptrs = 0;
    {
      Timed t("bench.ptr_store", ptr_ms);
      ptrs = pipeline.ptr_store().size();
    }
    layers.set_ms("rdns.ptr_ms", ptr_ms, static_cast<double>(ptrs));
  }

  // routes_to is timed inside the route layer (a histogram recorded while
  // tracing) and counted by route.tables_computed; take their deltas.
  const double routes_before = histogram_sum("route.routes_to_ms");
  const double tables_before = counter_value("route.tables_computed");
  double peering_ms = 0.0;
  std::size_t evidence = 0;
  {
    Timed t("bench.peering_study", peering_ms);
    evidence = pipeline.peering_study(repro::Hypergiant::kGoogle).size();
  }
  const double targets =
      static_cast<double>(pipeline.internet().access_isps().size());
  const double routes_ms = histogram_sum("route.routes_to_ms") - routes_before;
  const double tables = counter_value("route.tables_computed") - tables_before;
  layers.set_ms("route.peering_ms", peering_ms,
                static_cast<double>(evidence));
  layers.set_ms("route.routes_to_ms", routes_ms, tables);
  layers.set("route.tables", tables, tables, routes_ms);
  layers.set("route.targets", targets, targets, peering_ms);
}

void replay_clustering(const repro::Pipeline& pipeline,
                       const std::vector<AsIndex>& isps,
                       std::span<const double> xis, MatrixSource source,
                       double stage_ms, std::size_t threads,
                       LayerTable& layers, Outcome& out) {
  const repro::OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  const repro::PingMesh& mesh = pipeline.ping_mesh();
  const repro::VantagePointSet& vps = pipeline.vantage_points();
  repro::ColocationConfig config;
  config.filter = pipeline.scenario().filter;

  double measure_ms = 0.0, load_ms = 0.0, filter_ms = 0.0, distance_ms = 0.0,
         optics_ms = 0.0, xi_ms = 0.0, serial_ms = 0.0, straggler_ms = 0.0;
  double cells = 0.0, rows = 0.0, kept = 0.0, pairs = 0.0;
  AsIndex straggler = repro::kInvalidIndex;
  std::size_t compared = 0;
  std::size_t differ = 0;

  const std::size_t restore_threads = repro::default_thread_count();
  repro::set_default_thread_count(1);
  for (const AsIndex isp : isps) {
    const auto isp_start = Clock::now();
    repro::LatencyMatrix matrix;
    if (source == MatrixSource::kMeasure) {
      Timed t("bench.replay.measure_isp", measure_ms);
      matrix = mesh.measure_isp(registry, isp);
    } else {
      Timed t("bench.replay.isp_latency_matrix", load_ms);
      matrix = pipeline.isp_latency_matrix(isp);
    }
    if (source == MatrixSource::kMeasure) {
      cells += static_cast<double>(matrix.row_count() * matrix.vp_count);
    }
    rows += static_cast<double>(matrix.row_count());

    // The same steps, in the same order, as ColocationClusterer.
    repro::IspClustering base;
    base.isp = isp;
    repro::FilteredMatrix cleaned;
    bool done = matrix.row_count() == 0;
    if (!done) {
      {
        Timed t("bench.replay.clean_matrix", filter_ms);
        cleaned = repro::clean_matrix(matrix, vps, config.filter);
      }
      kept += static_cast<double>(cleaned.row_count());
      base.dropped_unresponsive = cleaned.dropped_unresponsive;
      base.dropped_impossible = cleaned.dropped_impossible;
      base.usable_sites = cleaned.col_count();
      done = !cleaned.usable;
    }
    if (!done) {
      base.usable = true;
      for (const std::size_t row : cleaned.kept_rows) {
        base.registry_indices.push_back(matrix.server_indices[row]);
      }
    }
    std::vector<repro::IspClustering> replayed(xis.size(), base);
    if (!done && cleaned.row_count() == 1) {
      for (repro::IspClustering& c : replayed) c.labels.assign(1, -1);
    } else if (!done) {
      const std::size_t n = cleaned.row_count();
      pairs += static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
      repro::DistanceMatrix distances = [&] {
        Timed t("bench.replay.pairwise_distances", distance_ms);
        return repro::pairwise_distances(cleaned.rtt, n, cleaned.col_count(),
                                         config.trim_fraction);
      }();
      repro::OpticsResult optics;
      {
        Timed t("bench.replay.optics_order", optics_ms);
        repro::optics_order(distances, config.min_pts, optics);
      }
      for (std::size_t x = 0; x < xis.size(); ++x) {
        {
          Timed t("bench.replay.extract_xi", xi_ms);
          repro::reextract_xi(optics, config.min_pts, xis[x]);
        }
        replayed[x].labels = optics.labels;
        replayed[x].cluster_count = optics.cluster_count;
      }
    }
    const double isp_ms = ms_since(isp_start);
    serial_ms += isp_ms;
    if (isp_ms > straggler_ms) {
      straggler_ms = isp_ms;
      straggler = isp;
    }

    for (std::size_t x = 0; x < xis.size(); ++x) {
      const repro::IspClustering* expected =
          pipeline.clustering_of(xis[x], isp);
      ++compared;
      if (expected == nullptr || !same_clustering(*expected, replayed[x])) {
        ++differ;
      }
    }
  }
  repro::set_default_thread_count(restore_threads);

  const double isp_count = static_cast<double>(isps.size());
  layers.set_ms("mlab.measure_ms", measure_ms, cells);
  layers.set("mlab.cells", cells, cells, measure_ms);
  layers.set("mlab.ns_per_cell", cells > 0.0 ? measure_ms * 1e6 / cells : 0.0,
             cells, measure_ms);
  layers.set_ms("mlab.filter_ms", filter_ms, rows);
  layers.set("mlab.ips_kept_ratio", rows > 0.0 ? kept / rows : 0.0, rows,
             filter_ms);
  layers.set_ms("cluster.distance_ms", distance_ms, pairs);
  layers.set("cluster.pairs", pairs, pairs, distance_ms);
  layers.set("cluster.ns_per_pair",
             pairs > 0.0 ? distance_ms * 1e6 / pairs : 0.0, pairs,
             distance_ms);
  layers.set_ms("cluster.optics_order_ms", optics_ms, kept);
  layers.set_ms("cluster.xi_extract_ms", xi_ms,
                isp_count * static_cast<double>(xis.size()));
  layers.set("cluster.isps", isp_count, isp_count, serial_ms);
  layers.set_ms("cluster.straggler_ms", straggler_ms, 1.0);
  const double efficiency =
      stage_ms > 0.0 ? serial_ms / (stage_ms * static_cast<double>(threads))
                     : 0.0;
  layers.set("cluster.parallel_efficiency", efficiency, isp_count, serial_ms);
  if (source == MatrixSource::kStore) {
    layers.set_ms("store.matrix_load_ms", load_ms, isp_count);
  }

  std::printf(
      "clustering critical path: stage wall %.1f ms on %zu threads | "
      "thread-sum %.1f ms (one-thread replay of %zu ISPs) | efficiency %.3f "
      "| straggler ISP %u: %.1f ms\n",
      stage_ms, threads, serial_ms, isps.size(), efficiency,
      static_cast<unsigned>(straggler), straggler_ms);
  std::printf("replay check: %zu replayed clusterings compared with "
              "pipeline.clusterings(xi), %zu differ\n",
              compared, differ);
  out.attempted += compared;
  out.failed += differ;
  if (differ > 0) {
    std::printf("FAILED: %zu replayed clusterings differ from the pipeline's\n",
                differ);
  }
}

void write_trace(const std::string& path) {
  repro::obs::write_run_report(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace perfbench
