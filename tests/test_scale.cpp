// The scale fence (docs/SCALING.md): every way of spreading the clustering
// stage across processes is bit-identical to the plain single-process
// pipeline.
//
//   * k-shard compute+merge (k in {1, 2, 4, 7}) == single process, for a
//     clean plan and for chaos(): clusterings, StageHealth, Table 1/2
//     renders, and every run-report domain counter.
//   * Shard-count invariance holds with the shared store warm or cold.
//
// Workers here run in-process (fresh ArtifactStore handle per worker over
// one shared root, metrics reset between phases) -- the same store-mediated
// protocol the forked repro-shard processes use, minus the fork; the real
// multi-process path is exercised by scripts/check.sh's shard tier.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/colocation.h"
#include "core/analyses.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"
#include "util/table.h"

namespace repro {
namespace {

namespace fs = std::filesystem;

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-unique so concurrent invocations of this suite (e.g. two CI jobs
    // on one host) can never tear down each other's stores mid-test.
    root_ = fs::temp_directory_path() /
            ("repro-scale-" + std::to_string(::getpid()) + "-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override {
    obs::metrics().reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// Fresh store handle over a per-k subdirectory (cold) or a shared one
  /// (warm reruns) -- one handle per Pipeline, like one per process.
  std::shared_ptr<store::ArtifactStore> open_store(const std::string& sub) {
    store::StoreConfig config;
    config.root = (root_ / sub).string();
    return std::make_shared<store::ArtifactStore>(config);
  }

  fs::path root_;
};

/// Domain counters only: store.* and pipeline.* describe the transport
/// (hits, shard bookkeeping), which legitimately differs between
/// process layouts; everything else must not.
std::map<std::string, std::uint64_t> domain_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name.rfind("store.", 0) == 0 || name.rfind("pipeline.", 0) == 0) {
      continue;
    }
    out[name] = value;
  }
  return out;
}

struct PipelineRun {
  std::vector<IspClustering> xi01;
  std::vector<IspClustering> xi09;
  std::map<std::string, fault::StageHealth> health;
  std::map<std::string, std::uint64_t> counters;
  std::string table1;
  std::string table2;
};

PipelineRun collect(const Pipeline& pipeline) {
  PipelineRun run;
  run.xi01 = pipeline.clusterings(0.1);
  run.xi09 = pipeline.clusterings(0.9);
  run.health = pipeline.stage_health();
  run.table1 = render(table1_study(pipeline));
  const double xis[] = {0.1, 0.9};
  run.table2 = render(table2_study(pipeline, xis));
  run.counters = domain_counters();
  return run;
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

void expect_identical_outputs(const PipelineRun& a, const PipelineRun& b,
                              const std::string& context) {
  ASSERT_EQ(a.xi01.size(), b.xi01.size()) << context;
  ASSERT_EQ(a.xi09.size(), b.xi09.size()) << context;
  for (std::size_t i = 0; i < a.xi01.size(); ++i) {
    expect_identical(a.xi01[i], b.xi01[i],
                     context + " xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < a.xi09.size(); ++i) {
    expect_identical(a.xi09[i], b.xi09[i],
                     context + " xi=0.9 #" + std::to_string(i));
  }
  ASSERT_EQ(a.health.size(), b.health.size()) << context;
  for (const auto& [stage, health] : a.health) {
    ASSERT_TRUE(b.health.count(stage)) << context << " stage " << stage;
    const fault::StageHealth& other = b.health.at(stage);
    EXPECT_EQ(health.status, other.status) << context << " " << stage;
    EXPECT_EQ(health.dropped, other.dropped) << context << " " << stage;
    EXPECT_EQ(health.total, other.total) << context << " " << stage;
    EXPECT_EQ(health.reasons, other.reasons) << context << " " << stage;
  }
  EXPECT_EQ(a.table1, b.table1) << context;
  EXPECT_EQ(a.table2, b.table2) << context;
}

void expect_identical_runs(const PipelineRun& a, const PipelineRun& b,
                           const std::string& context) {
  expect_identical_outputs(a, b, context);
  EXPECT_EQ(a.counters, b.counters) << context;
}

class ShardModeTest : public ScaleTest {
 protected:
  /// Single-process baseline over `sub`. A throwaway pipeline first
  /// publishes the shared stage artifacts (topology, population, scan) so
  /// the measured run is warm for those stages and cold only for
  /// clustering -- the exact stage temperature of a shard-mode parent,
  /// whose workers published the same artifacts. Without this the baseline
  /// would carry stage counters (scan.*, tls.*) no shard parent ever sees.
  PipelineRun run_single(const fault::FaultPlan& plan, const std::string& sub) {
    {
      Pipeline prewarm(Scenario::tiny(), plan, open_store(sub));
      prewarm.hosting_isps_2023();
    }
    obs::metrics().reset();
    Pipeline pipeline(Scenario::tiny(), plan, open_store(sub));
    return collect(pipeline);
  }

  /// k workers then a merging parent, each with its own Pipeline and store
  /// handle over the shared root; metrics are reset per phase so each
  /// in-process "process" sees its own registry, like real processes do.
  PipelineRun run_sharded(std::size_t shards, const fault::FaultPlan& plan,
                  const std::string& sub) {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      obs::metrics().reset();
      Pipeline worker(Scenario::tiny(), plan, open_store(sub));
      worker.compute_clustering_shard(shard, shards, 0.1);
    }
    obs::metrics().reset();
    Pipeline parent(Scenario::tiny(), plan, open_store(sub));
    parent.merge_clustering_shards(shards, 0.1);
    return collect(parent);
  }
};

TEST_F(ShardModeTest, ShardOfIsDeterministicAndCoversRange) {
  const std::uint64_t digest = measurement_digest(Scenario::tiny());
  std::set<std::size_t> seen;
  for (AsIndex isp = 0; isp < 1000; ++isp) {
    const std::size_t shard = Pipeline::shard_of(digest, isp, 7);
    EXPECT_LT(shard, 7u);
    EXPECT_EQ(shard, Pipeline::shard_of(digest, isp, 7)) << "unstable";
    seen.insert(shard);
  }
  // A 7-way split of 1000 ISPs that leaves shards empty would mean the
  // partition is degenerate, not just unlucky.
  EXPECT_EQ(seen.size(), 7u);
  // Different measurement digests shuffle the assignment (the partition is
  // keyed, not positional), and shard_count<=1 collapses to shard 0.
  EXPECT_EQ(Pipeline::shard_of(digest, 3, 1), 0u);
  EXPECT_EQ(Pipeline::shard_of(digest, 3, 0), 0u);
  bool any_differs = false;
  for (AsIndex isp = 0; isp < 1000 && !any_differs; ++isp) {
    any_differs = Pipeline::shard_of(digest, isp, 7) !=
                  Pipeline::shard_of(digest + 1, isp, 7);
  }
  EXPECT_TRUE(any_differs);
}

TEST_F(ShardModeTest, CleanShardCountsBitIdenticalToSingle) {
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const PipelineRun single = run_single(clean, "single");
  ASSERT_FALSE(single.xi01.empty());
  for (const std::size_t k : {1u, 2u, 4u, 7u}) {
    const PipelineRun sharded = run_sharded(k, clean, "k" + std::to_string(k));
    expect_identical_runs(single, sharded,
                          "clean k=" + std::to_string(k));
  }
}

TEST_F(ShardModeTest, ChaosShardCountsBitIdenticalToSingle) {
  // Under chaos() the fault injections (and the store's own corruption
  // chaos, deterministic per filename) land identically no matter which
  // process clusters which ISP.
  const fault::FaultPlan plan = fault::FaultPlan::chaos();
  const PipelineRun single = run_single(plan, "single");
  ASSERT_FALSE(single.xi01.empty());
  for (const std::size_t k : {1u, 2u, 4u, 7u}) {
    const PipelineRun sharded = run_sharded(k, plan, "k" + std::to_string(k));
    expect_identical_runs(single, sharded,
                          "chaos k=" + std::to_string(k));
  }
}

TEST_F(ShardModeTest, WarmStoreShardCountInvariance) {
  // One shared root: the k=4 pass computes everything cold; the k=2 and
  // k=7 reruns find the matrices (and stage artifacts) warm. Warm reruns
  // must agree with each other on every fence dimension, and with the cold
  // run on outputs -- counters legitimately lose the measurement-stage
  // entries once matrices come from disk instead of being measured.
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const PipelineRun cold = run_sharded(4, clean, "shared");
  const PipelineRun warm2 = run_sharded(2, clean, "shared");
  const PipelineRun warm7 = run_sharded(7, clean, "shared");
  expect_identical_runs(warm2, warm7, "warm k=2 vs warm k=7");
  expect_identical_outputs(cold, warm2, "cold k=4 vs warm k=2");
}

}  // namespace
}  // namespace repro
