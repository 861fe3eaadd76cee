#include "workload.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "stats.h"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::printf("FAILED: %s\n", what.c_str());
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

repro::Scenario seeded_scenario(repro::Scale scale, std::uint64_t seed) {
  repro::Scenario s = repro::Scenario::at_scale(scale);
  s.scanner.seed += seed * 0x9E3779B97F4A7C15ULL;
  s.ping.seed += seed * 0xBF58476D1CE4E5B9ULL;
  s.vantage_seed += seed * 0x94D049BB133111EBULL;
  s.ptr.seed += seed * 0xD6E8FEB86659FD93ULL;
  s.ixp.seed += seed * 0xA0761D6478BD642FULL;
  s.traceroute.seed += seed * 0xE7037ED1A0B428DBULL;
  s.peering.seed += seed * 0x8EBC6AF09C88C6E3ULL;
  s.capacity.seed += seed * 0x589965CC75374CC3ULL;
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void check_stage_health(const repro::Pipeline& pipeline, Outcome& out) {
  for (const auto& [stage, health] : pipeline.stage_health()) {
    out.check(health.status == repro::fault::StageStatus::kOk,
              "stage " + stage + " is " +
                  std::string(repro::fault::to_string(health.status)));
  }
}

void add_tally(const CheckTally& tally, Outcome& out) {
  out.attempted += tally.checked;
  out.failed += tally.mismatched;
  for (const std::string& key : tally.mismatches) {
    std::printf("FAILED: render %s differs from its pinned digest\n",
                key.c_str());
  }
  std::printf("renders: %llu checked against pinned digests, %llu mismatched, "
              "%llu not pinned\n",
              static_cast<unsigned long long>(tally.checked),
              static_cast<unsigned long long>(tally.mismatched),
              static_cast<unsigned long long>(tally.unpinned));
}

void add_query_metrics(Outcome& out, std::size_t queries, double measured_s,
                       const std::vector<double>& miss_ms) {
  const Tail tail = tail_latency(miss_ms);
  std::printf("misses: %zu samples, p50 %.3f ms, tail p%.1f %.3f ms\n",
              tail.samples, percentile(miss_ms, 50.0), tail.percentile,
              tail.value);
  out.add("qps", static_cast<double>(queries) / measured_s, "1/s");
  out.add("miss_p50_ms", percentile(miss_ms, 50.0), "ms");
  out.add("miss_tail_ms", tail.value, "ms");
}

}  // namespace perfbench
