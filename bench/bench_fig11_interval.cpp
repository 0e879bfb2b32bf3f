// Fig. 11 reproduction: effect of the monitor interval lambda_MI on FSD
// accuracy and FB_Hadoop FCT, PARALEON vs naive Elastic Sketch.
//
// Reproduced shape: PARALEON stays at/near 100% accuracy across
// millisecond-scale intervals; naive Elastic Sketch improves with longer
// intervals (more bytes per interval clear tau) but stays below PARALEON.
// Smaller intervals help PARALEON's FCT (fresher guidance).
//
// The grid is scenarios/fig11_interval.json: interval outer, scheme inner,
// so each table row is a naive-sketch / PARALEON pair of cells.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Result {
  Time mi = 0;
  double accuracy = 0;
  double fct_avg = 0;
};

Result harvest(const scenario::GridCell&, Experiment& exp,
               const scenario::FlowScheduler&) {
  return {exp.config().controller.mi, exp.mean_fsd_accuracy(),
          stats::mean(exp.fct().slowdowns(0, 1ll << 40))};
}

int run(const scenario::Scenario& sc) {
  print_header("Fig. 11: monitor interval vs FSD accuracy and FCT",
               scenario_note(sc));
  std::printf("%-10s | %-24s | %-24s\n", "", "accuracy", "FCT avg slowdown");
  std::printf("%-10s | %-12s %-12s | %-12s %-12s\n", "lambda_MI",
              "ElasticSk", "PARALEON", "ElasticSk", "PARALEON");
  const auto grid = harvest_grid(sc, /*jobs=*/1, harvest);
  for (std::size_t i = 0; i + 1 < grid.size(); i += 2) {
    const Result& es = grid[i];
    const Result& pl = grid[i + 1];
    std::printf("%-8.1fms | %-12.3f %-12.3f | %-12.2f %-12.2f\n",
                to_ms(es.mi), es.accuracy, pl.accuracy, es.fct_avg,
                pl.fct_avg);
  }
  std::printf(
      "\nPaper Fig. 11 shape: PARALEON accuracy ~100%% at every interval;\n"
      "naive sketch accuracy rises with the interval but stays below;\n"
      "PARALEON FCT <= naive-sketch FCT throughout.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig11_interval.json", false, run);
}
