// One knob object for the whole reproduction: topology, deployment,
// measurement and inference settings. Presets scale the world from unit-test
// size to the paper's scale.
#pragma once

#include <optional>
#include <string_view>

#include "hypergiant/background.h"
#include "hypergiant/deployment.h"
#include "mlab/filters.h"
#include "mlab/ping_mesh.h"
#include "rdns/ptr_store.h"
#include "route/ixp_registry.h"
#include "route/peering_inference.h"
#include "route/traceroute.h"
#include "scan/scanner.h"
#include "topology/generator.h"
#include "traffic/capacity.h"

namespace repro {

/// Preset size of the world a Scenario describes: unit-test (`tiny`),
/// integration (`small`), the paper's real input size (`paper`: ~9-10k
/// access ISPs, 163 vantage points), and a 10x stress world beyond it.
/// The tag is metadata for reports and benches -- scenarios are compared by
/// their config fields, never by the label (see docs/SCALING.md).
enum class Scale { kTiny, kSmall, kPaper, k10x };

std::string_view to_string(Scale scale) noexcept;

/// Inverse of to_string ("tiny"/"small"/"paper"/"10x"); nullopt otherwise.
std::optional<Scale> parse_scale(std::string_view name) noexcept;

struct Scenario {
  GeneratorConfig topology;
  DeploymentConfig deployment;
  PopulationConfig population;
  ScannerConfig scanner;
  PingConfig ping;
  FilterConfig filter;
  PtrConfig ptr;
  IxpRegistryConfig ixp;
  TracerouteConfig traceroute;
  PeeringStudyConfig peering;
  CapacityConfig capacity;

  /// Number of M-Lab-style vantage points (the paper uses 163).
  std::size_t vantage_points = 163;
  std::uint64_t vantage_seed = 163163;

  /// Which preset built this scenario. Execution metadata, deliberately
  /// excluded from measurement_digest: the digest already covers every
  /// field the label implies.
  Scale scale = Scale::kTiny;

  /// Smallest world that exercises every code path; for unit tests.
  static Scenario tiny();
  /// Mid-size world for integration tests and quick examples.
  static Scenario small();
  /// Paper-scale world (used by the benchmark harnesses).
  static Scenario paper();
  /// 10x the paper's access-ISP population: the north-star stress preset.
  static Scenario tenx();
  /// The preset for a Scale tag.
  static Scenario at_scale(Scale scale);
};

/// Scenario for the REPRO_SCALE environment variable: any spelling
/// parse_scale accepts. Unset, or spelt in a way parse_scale rejects (with a
/// warning on stderr), it is the `fallback` preset.
Scenario scenario_from_env(Scale fallback = Scale::kPaper);

/// 64-bit digest over every scenario field that determines the persistent
/// pipeline artifacts (topology, deployment, population, scanner, ping and
/// filter configs plus the vantage-point campaign). Two scenarios with the
/// same digest produce bit-identical scan records, TLS populations, latency
/// matrices and clusterings, so the artifact store keys on it. When you add
/// a field to one of these configs, mix it in here (and see the versioning
/// rules in docs/PERSISTENCE.md). Thread counts are deliberately excluded:
/// parallel execution is bit-identical to serial (docs/PARALLELISM.md), so
/// a warm start is valid across any REPRO_THREADS setting. The Scale tag
/// is excluded too: every field it implies is already mixed in.
std::uint64_t measurement_digest(const Scenario& scenario);

/// 64-bit digest over the topology-generator config alone: the key for the
/// warm-Internet artifact. Mixes exactly the topology section of
/// measurement_digest, so scenarios differing only in measurement settings
/// (deployment, ping, vantage...) share one persisted topology.
std::uint64_t topology_digest(const GeneratorConfig& config);

}  // namespace repro
