// The batch workloads: report_paper (every study examples/full_report
// renders, cold, at paper scale) and peering_paper (discovery plus the
// S4.2.1 Google traceroute campaign). Each repetition builds a fresh
// Pipeline with no store, so every study is computed; the first repetition
// always runs, later ones while the measured time is under --seconds.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyses.h"
#include "layers.h"
#include "obs/trace.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using repro::Pipeline;

namespace {

/// Pipeline constructions timed per run, at least (the set-up median).
constexpr std::size_t kSetupSamples = 15;

struct Rendered {
  std::string study;
  std::string text;
};

using StudyHook = std::function<void(const std::string& study, double ms)>;

const char* workload_name(BatchKind kind) {
  return kind == BatchKind::kReport ? "report_paper" : "peering_paper";
}

/// Runs the workload's studies in examples/full_report order, checking the
/// invariants their results must satisfy, and calls `hook` with each
/// study's time.
std::vector<Rendered> run_studies(const Pipeline& p, BatchKind kind,
                                  Outcome& out, const StudyHook& hook) {
  std::vector<Rendered> renders;
  const double xis[] = {0.1, 0.9};
  const auto study = [&](const char* name, const auto& compute) {
    const auto start = Clock::now();
    renders.push_back({name, compute()});
    if (hook) hook(name, ms_since(start));
    out.check(!renders.back().text.empty(), std::string(name) + " rendered");
  };
  const auto near_100 = [](double pct) { return std::abs(pct - 100.0) < 0.5; };

  const auto section421 = [&] {
    const repro::Section421Study s = repro::section421_study(p);
    out.check(s.offnet_isps == 0 ||
                  near_100(s.peer_pct + s.possible_pct + s.no_evidence_pct),
              "section421 verdict shares sum to 100%");
    return repro::render(s);
  };
  if (kind == BatchKind::kPeering) {
    study("section421", section421);
    return renders;
  }

  study("table1", [&] { return repro::render(repro::table1_study(p)); });
  study("figure1", [&] { return repro::render(repro::figure1_study(p)); });
  study("longitudinal",
        [&] { return repro::render(repro::longitudinal_study(p)); });
  study("table2", [&] {
    const repro::Table2Study s = repro::table2_study(p, xis);
    for (const repro::Table2Row& row : s.rows) {
      out.check(row.isp_count == 0 ||
                    near_100(row.sole_pct + row.coloc_0_pct +
                             row.coloc_mid_low_pct + row.coloc_mid_high_pct +
                             row.coloc_full_pct),
                "table2 row shares sum to 100%");
    }
    return repro::render(s);
  });
  study("figure2", [&] { return repro::render(repro::figure2_study(p, xis)); });
  study("validation",
        [&] { return repro::render(repro::validation_study(p, 0.1)); });
  study("section33", [&] { return repro::render(repro::section33_study(p)); });
  study("section41",
        [&] { return repro::render(repro::section41_study(p, xis)); });
  study("section421", section421);
  study("section422",
        [&] { return repro::render(repro::section422_study(p)); });
  study("section43", [&] { return repro::render(repro::section43_study(p)); });
  study("section6", [&] { return repro::render(repro::section6_study(p)); });
  return renders;
}

struct Rep {
  double setup_ms = 0.0;
  double wall_ms = 0.0;
  std::vector<Rendered> renders;
};

/// One cold repetition: construct a store-less pipeline (set-up), run the
/// studies (measured), check stage health. The pipeline's teardown is not
/// timed.
Rep cold_rep(const repro::Scenario& scenario, BatchKind kind, Outcome& out,
             const StudyHook& hook = {}) {
  Rep rep;
  const auto t0 = Clock::now();
  auto pipeline = std::make_unique<Pipeline>(
      scenario, repro::fault::FaultPlan::none(), nullptr);
  rep.setup_ms = ms_since(t0);
  const auto t1 = Clock::now();
  rep.renders = run_studies(*pipeline, kind, out, hook);
  rep.wall_ms = ms_since(t1);
  check_stage_health(*pipeline, out);
  return rep;
}

/// Checks a repetition's renders against the pinned digests and, for later
/// repetitions, against the first one's bytes.
void check_renders(const Rep& rep, const Rep* first, BatchKind kind,
                   std::uint64_t seed, const DigestBook& book,
                   CheckTally& tally, Outcome& out) {
  for (std::size_t i = 0; i < rep.renders.size(); ++i) {
    const Rendered& r = rep.renders[i];
    const std::string key = std::string(workload_name(kind)) + "/seed" +
                            std::to_string(seed) + "/" + r.study;
    const std::uint64_t digest = check_render(book, key, r.text, tally);
    if (first == nullptr) {
      std::printf("digest %s %s\n", key.c_str(), hex64(digest).c_str());
    } else {
      out.check(r.text == first->renders[i].text,
                key + " identical across repetitions");
    }
  }
}

Outcome run_untraced(const Options& o, const DigestBook& book,
                     BatchKind kind) {
  Outcome out;
  CheckTally tally;
  const repro::Scenario scenario =
      seeded_scenario(repro::Scale::kPaper, o.seed);
  repro::obs::set_tracing(false);

  std::vector<double> setup_ms;
  std::vector<double> wall_ms;
  std::optional<Rep> first;
  double measured_ms = 0.0;
  double rss_mb = 0.0;
  do {
    Rep rep = cold_rep(scenario, kind, out);
    check_renders(rep, first ? &*first : nullptr, kind, o.seed, book, tally,
                  out);
    setup_ms.push_back(rep.setup_ms);
    wall_ms.push_back(rep.wall_ms);
    measured_ms += rep.wall_ms;
    if (!first) {
      // Peak RSS through the first repetition: later ones would add the
      // allocator's leftovers from earlier pipelines.
      rss_mb = peak_rss_mb();
      first = std::move(rep);
    }
  } while (measured_ms < o.seconds * 1000.0);
  while (setup_ms.size() < kSetupSamples) {
    const auto t0 = Clock::now();
    Pipeline pipeline(scenario, repro::fault::FaultPlan::none(), nullptr);
    setup_ms.push_back(ms_since(t0));
  }
  add_tally(tally, out);

  std::printf("repetitions: %zu cold runs, walls (ms):", wall_ms.size());
  for (const double w : wall_ms) std::printf(" %.1f", w);
  std::printf("\n");
  out.add("wall_s", median(wall_ms) / 1000.0, "s");
  out.add("setup_s", median(setup_ms) / 1000.0, "s");
  out.add("peak_rss_mb", rss_mb, "MB");
  // A batch workload answers one query per repetition -- the whole
  // report (or campaign) -- and computes every one of them.
  add_query_metrics(out, wall_ms.size(), measured_ms / 1000.0, wall_ms);
  return out;
}

Outcome run_traced(const Options& o, const DigestBook& book, BatchKind kind) {
  Outcome out;
  CheckTally tally;
  const repro::Scenario scenario =
      seeded_scenario(repro::Scale::kPaper, o.seed);
  const bool report = kind == BatchKind::kReport;

  repro::obs::set_tracing(false);
  const Rep untraced = cold_rep(scenario, kind, out);
  check_renders(untraced, nullptr, kind, o.seed, book, tally, out);
  const double untraced_ms = untraced.setup_ms + untraced.wall_ms;

  repro::obs::set_tracing(true);
  repro::obs::tracer().reset();
  LayerTable layers;
  const auto traced_start = Clock::now();
  double construct_ms = 0.0;
  std::unique_ptr<Pipeline> pipeline;
  {
    Timed t("bench.pipeline", construct_ms);
    pipeline = std::make_unique<Pipeline>(
        scenario, repro::fault::FaultPlan::none(), nullptr);
  }
  layers.set_ms("topology.generate_ms", construct_ms,
                static_cast<double>(pipeline->internet().ases.size()));

  StagePlan plan;
  plan.snapshot_2021 = report;
  plan.all_methodologies = report;
  plan.cluster_xi = report ? 0.1 : 0.0;
  plan.ptr_store = report;
  force_stages(*pipeline, plan, layers);

  double render_ms = 0.0;
  Rep traced;
  traced.renders = run_studies(
      *pipeline, kind, out, [&](const std::string& study, double ms) {
        if (study == "validation") {
          layers.set_ms("rdns.validate_ms", ms, 1.0);
        } else {
          render_ms += ms;
        }
      });
  const double traced_ms = ms_since(traced_start);
  layers.set_ms("core.render_ms", render_ms,
                static_cast<double>(traced.renders.size()));
  layers.set("trace.overhead_ms", traced_ms - untraced_ms, 1.0,
             traced_ms - untraced_ms);
  check_stage_health(*pipeline, out);
  check_renders(traced, &untraced, kind, o.seed, book, tally, out);

  if (report) {
    const double xis[] = {0.1, 0.9};
    replay_clustering(*pipeline, pipeline->hosting_isps_2023(), xis,
                      MatrixSource::kMeasure,
                      layers.get("cluster.stage_ms").busy_ms, o.threads,
                      layers, out);
  } else {
    std::printf("replay check: not run (peering_paper does no clustering)\n");
  }
  add_tally(tally, out);

  std::printf("tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms\n",
              traced_ms, untraced_ms, traced_ms - untraced_ms);
  layers.print(traced_ms);
  layers.export_to(out);
  write_trace(o.trace_dir + "/trace_" + workload_name(kind) + "_seed" +
              std::to_string(o.seed) + ".json");
  repro::obs::set_tracing(false);
  return out;
}

}  // namespace

Outcome run_batch(const Options& options, const DigestBook& book,
                  BatchKind kind) {
  return options.trace ? run_traced(options, book, kind)
                       : run_untraced(options, book, kind);
}

}  // namespace perfbench
