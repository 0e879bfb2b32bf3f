// Fig. 10 reproduction: monitoring-design comparison.
//
// (a) Flow-size-distribution accuracy vs traffic load for No-FSD, NetFlow
//     (1:100 sampling, 1 s export), naive Elastic Sketch (per-interval,
//     no control plane, no TOS dedup) and PARALEON.
// (b) FB_Hadoop FCT under each monitoring scheme (all drive the same SA).
// Reproduced shape: PARALEON's accuracy is the highest at every load and
// its FCT the best, because the FSD steers SA mutation.
//
// (a) runs scenarios/fig10_accuracy.json (scheme x load) and (b)
// scenarios/fig10_fct.json (a longer horizon so the closed loop
// converges, cf. Fig. 7). RNIC_counters is this repo's extra row: the §V
// "relaxation" where the monitor reads hypothetical per-QP RNIC counters
// instead of switch sketches (exact, no programmable switches needed).
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Result {
  Scheme scheme = Scheme::kParaleon;
  double accuracy = 0;
  double mice_avg = 0;
  double eleph_avg = 0;
};

Result harvest(const scenario::GridCell&, Experiment& exp,
               const scenario::FlowScheduler&) {
  return {exp.config().scheme, exp.mean_fsd_accuracy(),
          stats::mean(exp.fct().slowdowns(0, 1 << 20)),
          stats::mean(exp.fct().slowdowns(1 << 20, 1ll << 40))};
}

int run(const scenario::Scenario& accuracy) {
  const scenario::Scenario fct =
      scenario::load_scenario_file(scenario_path("fig10_fct.json"));
  print_header("Fig. 10: monitoring designs — FSD accuracy and FCT",
               scenario_note(accuracy));
  std::printf("\n(a) FSD accuracy vs load\n%-16s", "scheme");
  const auto& loads = accuracy.sweep[1].values;
  for (const auto& l : loads) std::printf("  load=%.1f", l.as_double());
  // No_FSD keeps no flow size distribution, so it has no accuracy to
  // measure: its row is printed, not simulated.
  std::printf("\n%-16s", scheme_name(Scheme::kParaleonNoFsd).c_str());
  for (std::size_t l = 0; l < loads.size(); ++l) std::printf("%10s", "n/a");
  std::printf("\n");
  const auto grid = harvest_grid(accuracy, /*jobs=*/1, harvest);
  for (std::size_t i = 0; i < grid.size(); i += loads.size()) {
    std::printf("%-16s", scheme_name(grid[i].scheme).c_str());
    for (std::size_t l = i; l < i + loads.size(); ++l) {
      std::printf("%10.3f", grid[l].accuracy);
    }
    std::printf("\n");
  }
  std::printf("\n(b) FCT slowdown @load=%.1f, %g ms\n%-16s %-12s %-12s\n",
              fct.workload.front().load, fct.duration_ms, "scheme",
              "mice_avg", "eleph_avg");
  for (const Result& r : harvest_grid(fct, /*jobs=*/1, harvest)) {
    std::printf("%-16s %-12.2f %-12.2f\n", scheme_name(r.scheme).c_str(),
                r.mice_avg, r.eleph_avg);
  }
  std::printf(
      "\nPaper Fig. 10 shape: accuracy PARALEON > ElasticSketch > NetFlow\n"
      "at every load; FCT follows the same order with No_FSD worst.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig10_accuracy.json", false, run);
}
