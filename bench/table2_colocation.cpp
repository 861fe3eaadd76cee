// Regenerates Table 2: per hypergiant and per clustering setting
// (xi = 0.1 / 0.9), the share of hosting ISPs whose offnets are colocated
// with another hypergiant's offnets, bucketed {sole, 0%, (0,50)%, [50,100)%,
// 100%}. Runs the full measurement pipeline: ping mesh from the vantage
// points, Appendix-A filters, per-ISP OPTICS clustering.
//
// The BENCH json line records the clustering stage's wall time and thread
// count.
#include "bench_common.h"
#include "util/thread_pool.h"

int main() {
  using namespace repro;
  using namespace repro::bench;
  const Stopwatch watch;
  print_header("Table 2 -- colocation of offnets across hypergiants");

  Pipeline pipeline(scenario_from_env());
  // Materialize everything upstream of clustering so the stage timer below
  // sees clustering alone, not discovery or the ping mesh.
  pipeline.hosting_isps_2023();
  pipeline.ping_mesh();
  const Stopwatch cluster_watch;
  pipeline.clusterings(0.1);
  const double cluster_seconds = cluster_watch.seconds();
  const std::size_t cluster_threads = default_thread_count();

  std::printf("%s\n", render(table2_study(pipeline, kPaperXis)).c_str());

  std::printf(
      "Paper reference (sole / 0 / (0,50) / [50,100) / 100):\n"
      "  Google  xi=0.1: 31/15/12/ 9/33   xi=0.9: 31/ 2/ 2/ 3/62\n"
      "  Akamai  xi=0.1: 16/25/36/ 7/16   xi=0.9: 16/ 7/ 4/15/58\n"
      "  Meta    xi=0.1:  6/23/27/12/32   xi=0.9:  6/ 4/ 2/ 4/84\n"
      "  Netflix xi=0.1: 12/21/10/11/46   xi=0.9: 12/ 8/ 2/ 7/71\n"
      "Shape to hold: colocation widespread for every hypergiant; xi=0.9\n"
      "shows far more full colocation; Akamai the most partial deployments.\n");
  std::printf("\nclustering: %.1f s on %zu threads\n", cluster_seconds,
              cluster_threads);

  char fields[256];
  std::snprintf(fields, sizeof(fields),
                "\"clustering_seconds\":%.6f,\"clustering_threads\":%zu",
                cluster_seconds, cluster_threads);

  print_footer("table2_colocation", watch, pipeline, fields);
  return 0;
}
