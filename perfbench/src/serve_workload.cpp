// The serve workload (serve_xi_sweep). Set-up fills a private artifact store
// with the clean tiny world; the measured phase starts a fresh ReportService
// over that store and drains a seeded schedule with a closed loop of client
// threads. Every served render is then checked against the batch render of
// the same world and xi (through its pinned digest, or by rendering it). The
// service names worlds only by their
// Scale preset, so the seed shapes the schedule (which xi values, which
// queries, in what order), not the world.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/analyses.h"
#include "layers.h"
#include "obs/metrics.h"
#include "schedule.h"
#include "serve/service.h"
#include "stats.h"
#include "store/artifact_store.h"
#include "workload.h"

namespace perfbench {

using repro::Pipeline;
using repro::Scale;

namespace {

/// Store fills per run; set-up time is their median.
constexpr std::size_t kStoreFills = 3;
/// Render-cache repeats issued after each first-contact query.
constexpr std::size_t kRepeatsPerKey = 16;
/// Client threads, at most (and never more than the CPUs).
constexpr std::size_t kMaxClients = 4;

/// Fresh-xi queries per run: about two per three seconds of --seconds, which
/// is what one tiny-scale clustering costs on a 4-thread x86 host.
std::size_t xi_queries_for(double seconds) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(
                                      std::ceil(seconds * 2.0 / 3.0)));
}

std::shared_ptr<repro::store::ArtifactStore> open_store(
    const std::string& dir) {
  repro::store::StoreConfig config;
  config.root = dir;
  return std::make_shared<repro::store::ArtifactStore>(config);
}

/// Fills an empty store at `dir` by computing the clean world once: the
/// ground truth, scans and discovery of both snapshots (Table 1) and every
/// per-ISP latency matrix plus the clusterings at the paper's xi pair.
/// Returns the time taken in ms.
double fill_store(const std::string& dir, const repro::Scenario& scenario) {
  std::filesystem::remove_all(dir);
  const auto start = Clock::now();
  Pipeline pipeline(scenario, repro::fault::FaultPlan::none(), open_store(dir));
  repro::table1_study(pipeline);
  pipeline.clusterings(0.1);
  return ms_since(start);
}

std::string render_key(const ScheduledQuery& q) {
  std::string key = "serve_xi_sweep/" + std::string(query_name(q.kind));
  if (q.xi > 0.0) {
    char xi[32];
    std::snprintf(xi, sizeof(xi), "/xi%.2f", q.xi);
    key += xi;
  }
  return key;
}

/// The batch render of a query: the study function called directly on a
/// pipeline of the same world.
std::string batch_render(const Pipeline& p, const ScheduledQuery& q) {
  const double xis[] = {q.xi};
  switch (q.kind) {
    case QueryKind::kTable1: return repro::render(repro::table1_study(p));
    case QueryKind::kSection421:
      return repro::render(repro::section421_study(p));
    case QueryKind::kTable2: return repro::render(repro::table2_study(p, xis));
    case QueryKind::kFigure2:
      return repro::render(repro::figure2_study(p, xis));
  }
  return {};
}

struct Served {
  double ms = 0.0;
  bool ok = false;
  bool cached = false;
  std::string render;
};

struct Pass {
  double wall_ms = 0.0;
  std::vector<Served> served;
  repro::store::StoreStats store;
  double computed = 0.0;         // serve.miss delta: renders computed
  double render_hits = 0.0;      // serve.hit delta
  double pipeline_builds = 0.0;  // serve.pipeline_built delta
};

double counter(const char* name) {
  return static_cast<double>(repro::obs::metrics().counter(name).value());
}

/// Drains `schedule` through a fresh ReportService over the store at `dir`
/// with `clients` closed-loop client threads. The generator admits one
/// first-contact query at a time, so a miss's latency is the service's
/// compute time rather than a queue behind other misses (which the resident
/// pipeline serializes anyway); repeats keep flowing meanwhile. A repeat
/// waits until the first query of its key has been answered, so it is
/// always a render-cache hit and the compute/hit counts are fixed by the
/// schedule. Admission waits are outside the timed execute() call.
Pass drive(const std::string& dir, const std::vector<ScheduledQuery>& schedule,
           std::size_t clients, Outcome& out) {
  auto artifacts = open_store(dir);
  repro::serve::ServiceConfig config;
  config.artifacts = artifacts;
  config.default_scale = Scale::kTiny;
  repro::serve::ReportService service(config);

  const double miss_before = counter("serve.miss");
  const double hit_before = counter("serve.hit");
  const double built_before = counter("serve.pipeline_built");

  std::size_t keys = 0;
  for (const ScheduledQuery& q : schedule) keys = std::max(keys, q.key + 1);
  std::mutex answered_mutex;
  std::condition_variable answered_cv;
  std::vector<char> answered(keys, 0);
  bool miss_in_flight = false;
  std::atomic<std::size_t> next{0};

  Pass pass;
  pass.served.resize(schedule.size());
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const ScheduledQuery& q = schedule[i];
      {
        std::unique_lock<std::mutex> lock(answered_mutex);
        if (q.repeat) {
          answered_cv.wait(lock, [&] { return answered[q.key] != 0; });
        } else {
          answered_cv.wait(lock, [&] { return !miss_in_flight; });
          miss_in_flight = true;
        }
      }
      repro::serve::QueryRequest request;
      request.query = std::string(query_name(q.kind));
      request.scale = Scale::kTiny;
      if (q.xi > 0.0) request.xis = {q.xi};
      const auto start = Clock::now();
      repro::serve::QueryResponse response = service.execute(request);
      pass.served[i] = {ms_since(start), response.ok, response.cached,
                        std::move(response.render)};
      if (!q.repeat) {
        std::lock_guard<std::mutex> lock(answered_mutex);
        answered[q.key] = 1;
        miss_in_flight = false;
        answered_cv.notify_all();
      }
    }
  };

  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  }
  pass.wall_ms = ms_since(start);
  pass.store = artifacts->stats();
  pass.computed = counter("serve.miss") - miss_before;
  pass.render_hits = counter("serve.hit") - hit_before;
  pass.pipeline_builds = counter("serve.pipeline_built") - built_before;

  check_stage_health(*service.resolver().pipeline(
                         repro::Scenario::tiny(), repro::fault::FaultPlan::none()),
                     out);
  return pass;
}

/// Checks every response of a pass: ok, a hit exactly when it is a repeat,
/// and for a repeat the same bytes as the first answer for its key.
void check_pass(const Pass& pass, const std::vector<ScheduledQuery>& schedule,
                Outcome& out) {
  std::vector<const Served*> first(schedule.size(), nullptr);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledQuery& q = schedule[i];
    const Served& s = pass.served[i];
    const std::string what = "query " + std::to_string(i) + " " + render_key(q);
    out.check(s.ok, what + " answered ok");
    out.check(s.cached == q.repeat,
              what + (q.repeat ? " served from the render cache"
                               : " computed by the service"));
    if (!q.repeat) {
      first[q.key] = &s;
    } else {
      out.check(first[q.key] != nullptr && s.render == first[q.key]->render,
                what + " identical to the first answer");
    }
  }
}

/// Checks the first answer of every key against the batch render of the
/// same world and xi: through its pinned digest (recorded from that batch
/// render in digests.txt) when there is one, else by rendering it here on a
/// store-less pipeline and comparing the bytes.
void check_against_batch(const Pass& pass,
                         const std::vector<ScheduledQuery>& schedule,
                         const DigestBook& book, CheckTally& tally,
                         Outcome& out) {
  std::unique_ptr<Pipeline> batch;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledQuery& q = schedule[i];
    if (q.repeat) continue;
    const std::string key = render_key(q);
    const std::string& served = pass.served[i].render;
    if (book.find(key).has_value()) {
      check_render(book, key, served, tally);
      continue;
    }
    if (!batch) {
      batch = std::make_unique<Pipeline>(
          repro::Scenario::tiny(), repro::fault::FaultPlan::none(), nullptr);
    }
    const std::string expected = batch_render(*batch, q);
    ++tally.unpinned;
    out.check(served == expected, key + " byte-identical to the batch render");
    std::printf("digest %s %s\n", key.c_str(),
                hex64(fnv1a64(expected)).c_str());
  }
}

std::vector<double> miss_latencies(const Pass& pass) {
  std::vector<double> ms;
  for (const Served& s : pass.served) {
    if (!s.cached) ms.push_back(s.ms);
  }
  return ms;
}

std::string store_dir(const Options& o, std::size_t i) {
  return o.work_dir + "/serve_store_" + std::to_string(i);
}

void remove_stores(const Options& o) {
  for (std::size_t i = 0; i < kStoreFills; ++i) {
    std::filesystem::remove_all(store_dir(o, i));
  }
}

}  // namespace

void print_serve_digests() {
  const Pipeline batch(repro::Scenario::tiny(),
                       repro::fault::FaultPlan::none(), nullptr);
  std::vector<ScheduledQuery> queries = {{QueryKind::kTable1},
                                         {QueryKind::kSection421}};
  for (const double xi : fresh_xis(0, kFreshXiCount)) {
    queries.push_back({QueryKind::kTable2, xi});
    queries.push_back({QueryKind::kFigure2, xi});
  }
  std::sort(queries.begin(), queries.end(),
            [](const ScheduledQuery& a, const ScheduledQuery& b) {
              return a.xi < b.xi || (a.xi == b.xi && a.kind < b.kind);
            });
  for (const ScheduledQuery& q : queries) {
    std::printf("%s %s\n", render_key(q).c_str(),
                hex64(fnv1a64(batch_render(batch, q))).c_str());
  }
}

Outcome run_serve(const Options& o, const DigestBook& book) {
  Outcome out;
  CheckTally tally;
  const repro::Scenario scenario = repro::Scenario::tiny();
  const std::size_t xi_queries = xi_queries_for(o.seconds);
  const std::vector<ScheduledQuery> schedule =
      build_schedule(o.seed, xi_queries, kRepeatsPerKey);
  const std::size_t clients = std::min(o.threads, kMaxClients);
  repro::obs::set_tracing(false);

  std::vector<double> fill_ms;
  for (std::size_t i = 0; i < kStoreFills; ++i) {
    fill_ms.push_back(fill_store(store_dir(o, i), scenario));
  }
  std::printf("set-up: %zu store fills, peak RSS so far %.1f MB\n", kStoreFills,
              peak_rss_mb());
  std::printf("schedule: %zu queries (%zu fresh xi, 2 first-contact, %zu "
              "repeats) on %zu clients\n",
              schedule.size(), xi_queries,
              schedule.size() - xi_queries - 2, clients);

  const Pass pass = drive(store_dir(o, 0), schedule, clients, out);
  const double rss_mb = peak_rss_mb();  // set-up and measured phase only
  check_pass(pass, schedule, out);
  check_against_batch(pass, schedule, book, tally, out);

  if (!o.trace) {
    add_tally(tally, out);
    out.add("wall_s", pass.wall_ms / 1000.0, "s");
    out.add("setup_s", median(fill_ms) / 1000.0, "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    add_query_metrics(out, schedule.size(), pass.wall_ms / 1000.0,
                      miss_latencies(pass));
    remove_stores(o);
    return out;
  }

  // Traced run: the same schedule over the second pristine store with
  // tracing on, then the stages forced one at a time on a pipeline over
  // that (now warm) store, and the clustering replayed from its matrices.
  repro::obs::set_tracing(true);
  repro::obs::tracer().reset();
  LayerTable layers;
  const Pass traced = drive(store_dir(o, 1), schedule, clients, out);
  check_pass(traced, schedule, out);
  check_against_batch(traced, schedule, book, tally, out);
  const double queries = static_cast<double>(schedule.size());
  const double store_loads =
      static_cast<double>(traced.store.hits + traced.store.misses);
  layers.set("store.hits", static_cast<double>(traced.store.hits), store_loads);
  layers.set("store.misses", static_cast<double>(traced.store.misses),
             store_loads);
  layers.set("store.saved", static_cast<double>(traced.store.saved),
             static_cast<double>(traced.store.saved));
  layers.set("store.hit_ratio",
             store_loads > 0.0 ? traced.store.hits / store_loads : 0.0,
             store_loads);
  layers.set("serve.render_hit_ratio", traced.render_hits / queries, queries);
  layers.set("serve.pipeline_builds", traced.pipeline_builds, queries);
  layers.set("serve.compute_queries", traced.computed, queries);
  layers.set("trace.overhead_ms", traced.wall_ms - pass.wall_ms, 1.0,
             traced.wall_ms - pass.wall_ms);

  const double probe_xi = fresh_xis(o.seed, xi_queries + 1).back();
  double construct_ms = 0.0;
  std::unique_ptr<Pipeline> pipeline;
  {
    Timed t("bench.pipeline", construct_ms);
    pipeline = std::make_unique<Pipeline>(scenario,
                                          repro::fault::FaultPlan::none(),
                                          open_store(store_dir(o, 1)));
  }
  layers.set_ms("topology.generate_ms", construct_ms,
                static_cast<double>(pipeline->internet().ases.size()));
  StagePlan plan;
  plan.cluster_xi = probe_xi;
  force_stages(*pipeline, plan, layers);
  double render_ms = 0.0;
  {
    Timed t("bench.renders", render_ms);
    for (const QueryKind kind : {QueryKind::kTable2, QueryKind::kFigure2}) {
      const ScheduledQuery q{kind, probe_xi};
      check_render(book, render_key(q), batch_render(*pipeline, q), tally);
    }
  }
  layers.set_ms("core.render_ms", render_ms, 2.0);
  check_stage_health(*pipeline, out);
  const double xis[] = {probe_xi};
  replay_clustering(*pipeline, pipeline->hosting_isps_2023(), xis,
                    MatrixSource::kStore, layers.get("cluster.stage_ms").busy_ms,
                    o.threads, layers, out);
  add_tally(tally, out);

  std::printf("tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms\n",
              traced.wall_ms, pass.wall_ms, traced.wall_ms - pass.wall_ms);
  layers.print(traced.wall_ms);
  layers.export_to(out);
  write_trace(o.trace_dir + "/trace_serve_xi_sweep_seed" +
              std::to_string(o.seed) + ".json");
  repro::obs::set_tracing(false);
  pipeline.reset();
  remove_stores(o);
  return out;
}

}  // namespace perfbench
