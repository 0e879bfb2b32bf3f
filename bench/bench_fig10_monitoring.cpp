// Fig. 10 reproduction: monitoring-design comparison.
//
// (a) Flow-size-distribution accuracy vs traffic load for No-FSD, NetFlow
//     (1:100 sampling, 1 s export), naive Elastic Sketch (per-interval,
//     no control plane, no TOS dedup) and PARALEON.
// (b) FB_Hadoop FCT under each monitoring scheme (all drive the same SA).
// Reproduced shape: PARALEON's accuracy is the highest at every load and
// its FCT the best, because the FSD steers SA mutation.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Result {
  double accuracy = 0;
  double mice_avg = 0;
  double eleph_avg = 0;
};

Result run_scheme(Scheme s, double load, Time duration) {
  ExperimentConfig cfg = paper_fabric(s, 31);
  cfg.duration = duration;
  cfg.track_fsd_accuracy = true;
  Experiment exp(cfg);
  exp.add_poisson(
      fb_hadoop(exp, load, duration - milliseconds(20), 4001));
  exp.run();
  Result r;
  r.accuracy = exp.mean_fsd_accuracy();
  r.mice_avg = stats::mean(exp.fct().slowdowns(0, 1 << 20));
  r.eleph_avg = stats::mean(exp.fct().slowdowns(1 << 20, 1ll << 40));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 10: monitoring designs — FSD accuracy and FCT",
               scaling_note(paper_fabric(Scheme::kParaleon, 31),
                            "FB_Hadoop, 300 ms; NetFlow: 1:100 sampling, "
                            "1 s export (stale at ms scale)"));
  // RNIC_counters is this repo's extra row: the §V "relaxation" where the
  // monitor reads hypothetical per-QP RNIC counters instead of switch
  // sketches (exact, no programmable switches needed).
  const Scheme schemes[] = {Scheme::kParaleonNoFsd, Scheme::kParaleonNetflow,
                            Scheme::kParaleonNaiveSketch, Scheme::kParaleon,
                            Scheme::kParaleonRnicCounters};
  std::printf("\n(a) FSD accuracy vs load\n%-16s", "scheme");
  const double loads[] = {0.2, 0.3, 0.4};
  for (double l : loads) std::printf("  load=%.1f", l);
  std::printf("\n");
  for (const Scheme s : schemes) {
    std::printf("%-16s", scheme_name(s).c_str());
    for (double l : loads) {
      const Result r = run_scheme(s, l, milliseconds(300));
      if (s == Scheme::kParaleonNoFsd) {
        std::printf("%10s", "n/a");
      } else {
        std::printf("%10.3f", r.accuracy);
      }
    }
    std::printf("\n");
  }
  // Longer horizon for FCT so the closed loop converges (cf. Fig. 7).
  std::printf("\n(b) FCT slowdown @load=0.3, 700 ms\n%-16s %-12s %-12s\n",
              "scheme", "mice_avg", "eleph_avg");
  for (const Scheme s : schemes) {
    const Result r = run_scheme(s, 0.3, milliseconds(700));
    std::printf("%-16s %-12.2f %-12.2f\n", scheme_name(s).c_str(),
                r.mice_avg, r.eleph_avg);
  }
  std::printf(
      "\nPaper Fig. 10 shape: accuracy PARALEON > ElasticSketch > NetFlow\n"
      "at every load; FCT follows the same order with No_FSD worst.\n");
  TrendReport trend("fig10_monitoring");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
