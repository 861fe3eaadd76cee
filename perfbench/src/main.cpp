// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <report_paper|peering_paper|serve_xi_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             --digests <digests.txt> --work-dir <dir> --trace-dir <dir>
//   perfbench --pin-serve-digests
//
// Runs one workload through the public core/serve APIs, checks every output
// it times, and prints as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones (tracing forced off);
// with --trace 1 they are the per-layer ones of a traced run. Exits 1 when
// any check failed, 2 on a usage or set-up error (then without a result).
// --pin-serve-digests prints the serve_xi_sweep lines of digests.txt.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workload.h"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Outcome;

/// Drops every REPRO_* variable so that no program toggle (tracing, store,
/// thread count, SIMD cap, fault plan ...) leaks into the measurement.
void scrub_program_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "REPRO_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                         : static_cast<std::size_t>(eq - *e));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--digests") {
      o.digests_path = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (o.workload != "report_paper" && o.workload != "peering_paper" &&
      o.workload != "serve_xi_sweep") {
    throw std::runtime_error("--workload must be report_paper, "
                             "peering_paper or serve_xi_sweep");
  }
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  if (!have_trace || o.digests_path.empty() || o.work_dir.empty() ||
      o.trace_dir.empty()) {
    throw std::runtime_error(
        "--trace, --digests, --work-dir and --trace-dir are required");
  }
  return o;
}

void print_result(const Outcome& out) {
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  scrub_program_environment();
  if (argc == 2 && std::strcmp(argv[1], "--pin-serve-digests") == 0) {
    perfbench::print_serve_digests();
    return 0;
  }
  Options options;
  perfbench::DigestBook book;
  try {
    options = parse(argc, argv);
    book = perfbench::DigestBook::load(options.digests_path);
    std::filesystem::create_directories(options.work_dir);
    std::filesystem::create_directories(options.trace_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }

  options.threads = available_cpus();
  repro::set_default_thread_count(options.threads);
  repro::obs::set_tracing(false);
  std::printf("record: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %zu, \"hardware_threads\": %zu, "
              "\"pool_threads\": %zu, \"simd\": \"%s\"}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.threads,
              repro::hardware_thread_count(), repro::default_thread_count(),
              std::string(repro::simd::to_string(repro::simd::active_level()))
                  .c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    if (options.workload == "serve_xi_sweep") {
      out = perfbench::run_serve(options, book);
    } else {
      out = perfbench::run_batch(options, book,
                                 options.workload == "report_paper"
                                     ? perfbench::BatchKind::kReport
                                     : perfbench::BatchKind::kPeering);
    }
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 2;
  }
  print_result(out);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
