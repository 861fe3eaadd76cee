// The parallel clustering engine's load-bearing contract: for every thread
// count, parallel execution is bit-identical to serial -- the thread pool
// only changes which thread runs each index range, never what is computed.
// Covers the pool/parallel_for primitives, the vectorized pairwise-distance
// kernel, cluster_isp_multi, the full Pipeline clustering stage (clean
// and under a nonzero FaultPlan), and the Section 4.2.1 peering campaign
// (clean and under BGP flaps), plus thread-count invariance of every
// run-report counter. Runs under ThreadSanitizer in scripts/check.sh
// (ctest -L parallel).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/colocation.h"
#include "cluster/distance.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "route/peering_inference.h"
#include "topology/generator.h"
#include "util/error.h"
#include "util/rng.h"

namespace repro {
namespace {

/// Restores the thread-count override after every test, so a failing
/// EXPECT cannot leak a forced count into later tests.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_default_thread_count(0); }
};

TEST_F(ParallelTest, DefaultThreadCountResolution) {
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  set_default_thread_count(0);
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST_F(ParallelTest, SharedPoolCoversDeterminismTier) {
  // The determinism tests below ask for 8 threads; the shared pool must be
  // able to host them even on small machines.
  EXPECT_GE(ThreadPool::shared().worker_count(), 8u);
}

TEST_F(ParallelTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, BlocksPartitionTheRange) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for_blocks(
      kCount, 7,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, kCount);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      8);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for_blocks(
      100, 10,
      [&](std::size_t begin, std::size_t end) {
        // Serial fallback: one body call covering the whole range, on the
        // calling thread, with no pool traffic.
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
        ++calls;
      },
      1);
  EXPECT_EQ(calls, 1u);
}

TEST_F(ParallelTest, NestedParallelForSerializes) {
  // A body that itself calls parallel_for (pairwise_distances inside the
  // per-ISP fan-out) must not deadlock the pool: the inner loop serializes.
  std::atomic<int> inner_total{0};
  parallel_for(
      4,
      [&](std::size_t) {
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        const std::thread::id worker = std::this_thread::get_id();
        parallel_for(
            50,
            [&](std::size_t) {
              EXPECT_EQ(std::this_thread::get_id(), worker);
              inner_total.fetch_add(1);
            },
            8);
      },
      4);
  EXPECT_EQ(inner_total.load(), 4 * 50);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 617) throw Error("boom at 617");
          },
          8),
      Error);
  // The pool survives a throwing body and keeps scheduling work.
  std::atomic<int> count{0};
  parallel_for(
      100, [&](std::size_t) { count.fetch_add(1); }, 8);
  EXPECT_EQ(count.load(), 100);
}

std::vector<double> random_table(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> table(rows * cols);
  for (auto& value : table) value = rng.uniform(10.0, 200.0);
  return table;
}

TEST_F(ParallelTest, PairwiseDistancesBitIdenticalAcrossThreadCounts) {
  const std::size_t rows = 64;
  const std::size_t cols = 40;
  const std::vector<double> table = random_table(rows, cols, 7171);

  set_default_thread_count(1);
  const DistanceMatrix serial = pairwise_distances(table, rows, cols, 0.2);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    set_default_thread_count(threads);
    const DistanceMatrix parallel = pairwise_distances(table, rows, cols, 0.2);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = i + 1; j < rows; ++j) {
        // Exact equality: same kernel, same accumulation order, only the
        // executing thread differs.
        ASSERT_EQ(parallel.at(i, j), serial.at(i, j))
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

void expect_identical(const IspClustering& a, const IspClustering& b,
                      const std::string& context) {
  EXPECT_EQ(a.isp, b.isp) << context;
  EXPECT_EQ(a.usable, b.usable) << context;
  EXPECT_EQ(a.registry_indices, b.registry_indices) << context;
  EXPECT_EQ(a.labels, b.labels) << context;
  EXPECT_EQ(a.cluster_count, b.cluster_count) << context;
  EXPECT_EQ(a.dropped_unresponsive, b.dropped_unresponsive) << context;
  EXPECT_EQ(a.dropped_impossible, b.dropped_impossible) << context;
  EXPECT_EQ(a.usable_sites, b.usable_sites) << context;
}

TEST_F(ParallelTest, ClusterIspMultiThreadInvariant) {
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  DeploymentConfig deploy_config;
  deploy_config.footprint_scale = GeneratorConfig::tiny().scale;
  const OffnetRegistry registry =
      DeploymentPolicy(net, deploy_config).deploy(Snapshot::k2023);
  const VantagePointSet vps(net, 40, 163163);
  const PingMesh mesh(net, vps, PingConfig{});
  ColocationConfig config;
  config.filter.min_usable_sites = 25;
  const ColocationClusterer clusterer(registry, mesh, vps, config);
  const double xis[] = {0.1, 0.9};

  int checked = 0;
  for (const AsIndex isp : registry.hosting_isps()) {
    set_default_thread_count(1);
    const auto serial = clusterer.cluster_isp_multi(isp, xis);
    for (const std::size_t threads : {2u, 8u}) {
      set_default_thread_count(threads);
      const auto parallel = clusterer.cluster_isp_multi(isp, xis);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t x = 0; x < serial.size(); ++x) {
        expect_identical(parallel[x], serial[x],
                         "isp " + std::to_string(isp) + " xi#" +
                             std::to_string(x) + " threads " +
                             std::to_string(threads));
      }
    }
    if (++checked >= 8) break;
  }
  EXPECT_GE(checked, 4);
}

void expect_identical_health(
    const std::map<std::string, fault::StageHealth>& a,
    const std::map<std::string, fault::StageHealth>& b,
    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const auto& [stage, health] : a) {
    ASSERT_TRUE(b.count(stage)) << context << " stage " << stage;
    const fault::StageHealth& other = b.at(stage);
    EXPECT_EQ(health.status, other.status) << context << " " << stage;
    EXPECT_EQ(health.dropped, other.dropped) << context << " " << stage;
    EXPECT_EQ(health.total, other.total) << context << " " << stage;
    EXPECT_EQ(health.reasons, other.reasons) << context << " " << stage;
  }
}

/// Counter name -> value map from the registry (gauges and histograms are
/// deliberately excluded: cluster.threads and the shard timings legitimately
/// vary with the thread count; counters never may).
std::map<std::string, std::uint64_t> counter_map() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

struct PipelineRun {
  std::vector<IspClustering> xi01;
  std::vector<IspClustering> xi09;
  std::map<std::string, fault::StageHealth> health;
  std::map<std::string, std::uint64_t> counters;
};

PipelineRun run_pipeline(std::size_t threads, const fault::FaultPlan& plan) {
  obs::metrics().reset();
  set_default_thread_count(threads);
  Pipeline pipeline(Scenario::tiny(), plan);
  PipelineRun run;
  run.xi01 = pipeline.clusterings(0.1);
  run.xi09 = pipeline.clusterings(0.9);
  run.health = pipeline.stage_health();
  run.counters = counter_map();
  set_default_thread_count(0);
  return run;
}

void expect_identical_runs(const PipelineRun& serial, const PipelineRun& other,
                           const std::string& context) {
  ASSERT_EQ(other.xi01.size(), serial.xi01.size()) << context;
  ASSERT_EQ(other.xi09.size(), serial.xi09.size()) << context;
  for (std::size_t i = 0; i < serial.xi01.size(); ++i) {
    expect_identical(other.xi01[i], serial.xi01[i],
                     context + " xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < serial.xi09.size(); ++i) {
    expect_identical(other.xi09[i], serial.xi09[i],
                     context + " xi=0.9 #" + std::to_string(i));
  }
  expect_identical_health(serial.health, other.health, context);
  // Every counter in the run report (mlab probes, filter drops, fault
  // injections, clustering progress, ...) must be thread-count invariant.
  EXPECT_EQ(serial.counters, other.counters) << context;
}

TEST_F(ParallelTest, PipelineClusteringBitIdenticalClean) {
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const PipelineRun serial = run_pipeline(1, clean);
  ASSERT_FALSE(serial.xi01.empty());
  for (const std::size_t threads : {4u, 8u}) {
    const PipelineRun parallel = run_pipeline(threads, clean);
    expect_identical_runs(serial, parallel,
                          "clean threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelTest, PipelineClusteringBitIdenticalUnderFaults) {
  const fault::FaultPlan plan = fault::FaultPlan::chaos().scaled_by(0.5);
  const PipelineRun serial = run_pipeline(1, plan);
  ASSERT_FALSE(serial.xi01.empty());
  const PipelineRun parallel = run_pipeline(8, plan);
  expect_identical_runs(serial, parallel, "chaos@0.5 threads=8");
}

struct PeeringRun {
  std::map<AsIndex, IspPeeringEvidence> evidence;
  PeeringStudyOutcome outcome;
  std::uint64_t traceroutes = 0;  // route.traceroutes counter delta
};

PeeringRun run_peering(const PeeringStudy& study, AsIndex hg_as,
                       const std::vector<AsIndex>& targets,
                       const RoutingEngine& routing, std::size_t threads) {
  set_default_thread_count(threads);
  const std::uint64_t before =
      obs::metrics().counter("route.traceroutes").value();
  PeeringRun run;
  run.evidence = study.run(hg_as, targets, routing, &run.outcome);
  run.traceroutes =
      obs::metrics().counter("route.traceroutes").value() - before;
  set_default_thread_count(0);
  return run;
}

void expect_identical_peering(const PeeringRun& serial, const PeeringRun& other,
                              const std::string& context) {
  ASSERT_EQ(other.evidence.size(), serial.evidence.size()) << context;
  for (const auto& [isp, expected] : serial.evidence) {
    const auto it = other.evidence.find(isp);
    ASSERT_NE(it, other.evidence.end()) << context << " isp " << isp;
    const IspPeeringEvidence& got = it->second;
    const std::string where = context + " isp " + std::to_string(isp);
    EXPECT_EQ(got.isp, expected.isp) << where;
    EXPECT_EQ(got.status, expected.status) << where;
    EXPECT_EQ(got.seen_via_ixp, expected.seen_via_ixp) << where;
    EXPECT_EQ(got.seen_via_pni, expected.seen_via_pni) << where;
    EXPECT_EQ(got.traceroutes, expected.traceroutes) << where;
    EXPECT_EQ(got.unstable, expected.unstable) << where;
  }
  EXPECT_EQ(other.outcome.targets, serial.outcome.targets) << context;
  EXPECT_EQ(other.outcome.probes, serial.outcome.probes) << context;
  EXPECT_EQ(other.outcome.unstable_targets, serial.outcome.unstable_targets)
      << context;
  EXPECT_EQ(other.outcome.downgraded_peers, serial.outcome.downgraded_peers)
      << context;
  EXPECT_EQ(other.traceroutes, serial.traceroutes) << context;
}

TEST_F(ParallelTest, PeeringStudyBitIdenticalAcrossThreadCounts) {
  // Every probe keeps its campaign time whichever thread issues it, so a
  // BGP-flap plan, where the time picks the routing state, must match too.
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine routing(net);
  const IxpRegistry registry = IxpRegistry::build(net, IxpRegistryConfig{});
  const AsIndex google = net.as_by_asn(kGoogleAsn);
  const std::vector<AsIndex> targets = net.access_isps();
  ASSERT_GT(targets.size(), 8u);
  PeeringStudyConfig study_config;
  study_config.vm_count = 4;
  study_config.slash24s_per_target = 2;

  fault::FaultPlan flap = fault::FaultPlan::none();
  flap.route.flap_rate = 0.5;
  flap.route.flap_period = 2;
  for (const fault::FaultPlan& plan : {fault::FaultPlan::none(), flap}) {
    TracerouteConfig config;
    fault::apply_route_faults(config, plan);
    const TracerouteEngine engine(net, config);
    const PeeringStudy study(net, engine, registry, study_config);
    const std::string name = plan.route.flap_rate > 0.0 ? "flap" : "clean";
    const PeeringRun serial = run_peering(study, google, targets, routing, 1);
    EXPECT_EQ(serial.outcome.targets, targets.size());
    EXPECT_GT(serial.traceroutes, 0u);
    if (plan.route.flap_rate > 0.0) {
      EXPECT_GT(serial.outcome.unstable_targets, 0u)
          << "flap plan surfaced no instability; the check would be vacuous";
    } else {
      EXPECT_EQ(serial.outcome.unstable_targets, 0u);
    }
    for (const std::size_t threads : {2u, 4u, 8u}) {
      expect_identical_peering(
          serial, run_peering(study, google, targets, routing, threads),
          name + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(ParallelTest, ClusteringSpansStitchUnderPipelineStage) {
  // End-to-end span stitching: with tracing on, every cluster.* span opened
  // on a pool worker during the clustering fan-out must re-parent (through
  // the adopted pool.task spans) under the submitting pipeline.clustering
  // stage span -- no orphan subtrees in the flight recording.
  obs::set_tracing(true);
  obs::tracer().reset();
  obs::metrics().reset();
  set_default_thread_count(4);
  std::size_t isps = 0;
  {
    Pipeline pipeline(Scenario::tiny());
    isps = pipeline.clusterings(0.1).size();
  }
  // Each clustered ISP's Appendix-A cleaning is one cluster.clean_ms sample;
  // only ISPs with two or more usable IPs reach the pairwise kernel.
  const std::uint64_t clustered =
      obs::metrics().counter("cluster.isps_clustered").value();
  EXPECT_EQ(clustered, isps);
  EXPECT_EQ(obs::metrics().histogram("cluster.clean_ms").count(), clustered);
  EXPECT_LE(obs::metrics().histogram("cluster.distance_ms").count(), clustered);
  EXPECT_GT(obs::metrics().histogram("cluster.distance_ms").count(), 0u);

  // pool.task wrapper spans can close a beat after the fan-out returns.
  for (int i = 0; i < 2000; ++i) {
    bool open = false;
    for (const obs::Span& span : obs::tracer().spans()) {
      if (span.name == "pool.task" && !span.closed) open = true;
    }
    if (!open) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::vector<obs::Span> spans = obs::tracer().spans();
  std::size_t stage_id = obs::kNoSpan;
  for (const obs::Span& span : spans) {
    if (span.name == "pipeline.clustering") stage_id = span.id;
  }
  ASSERT_NE(stage_id, obs::kNoSpan) << "clustering stage span missing";

  std::size_t cluster_spans = 0;
  for (const obs::Span& span : spans) {
    if (span.name.rfind("cluster.", 0) != 0) continue;
    ++cluster_spans;
    std::size_t id = span.id;
    bool reached = false;
    for (int hops = 0; hops < 64 && id != obs::kNoSpan; ++hops) {
      if (id == stage_id) {
        reached = true;
        break;
      }
      id = spans[id].parent;
    }
    EXPECT_TRUE(reached) << "orphan " << span.name << " span " << span.id;
  }
  EXPECT_GE(cluster_spans, 1u);
  obs::set_tracing(false);
  obs::tracer().reset();
  obs::metrics().reset();
}

}  // namespace
}  // namespace repro
