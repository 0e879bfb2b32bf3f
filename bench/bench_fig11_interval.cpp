// Fig. 11 reproduction: effect of the monitor interval lambda_MI on FSD
// accuracy and FB_Hadoop FCT, PARALEON vs naive Elastic Sketch.
//
// Reproduced shape: PARALEON stays at/near 100% accuracy across
// millisecond-scale intervals; naive Elastic Sketch improves with longer
// intervals (more bytes per interval clear tau) but stays below PARALEON.
// Smaller intervals help PARALEON's FCT (fresher guidance).
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Result {
  double accuracy = 0;
  double fct_avg = 0;
};

Result run_one(Scheme s, Time mi) {
  ExperimentConfig cfg = paper_fabric(s, 37);
  cfg.controller.mi = mi;
  cfg.duration = milliseconds(300);
  cfg.track_fsd_accuracy = true;
  Experiment exp(cfg);
  exp.add_poisson(fb_hadoop(exp, 0.3, milliseconds(280), 4101));
  exp.run();
  return {exp.mean_fsd_accuracy(),
          stats::mean(exp.fct().slowdowns(0, 1ll << 40))};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 11: monitor interval vs FSD accuracy and FCT",
               scaling_note(paper_fabric(Scheme::kParaleon, 37),
                            "FB_Hadoop @30%, 300 ms per cell"));
  const Time intervals[] = {microseconds(500), milliseconds(1),
                            milliseconds(2), milliseconds(4),
                            milliseconds(8)};
  std::printf("%-10s | %-24s | %-24s\n", "", "accuracy", "FCT avg slowdown");
  std::printf("%-10s | %-12s %-12s | %-12s %-12s\n", "lambda_MI",
              "ElasticSk", "PARALEON", "ElasticSk", "PARALEON");
  for (Time mi : intervals) {
    const Result es = run_one(Scheme::kParaleonNaiveSketch, mi);
    const Result pl = run_one(Scheme::kParaleon, mi);
    std::printf("%-8.1fms | %-12.3f %-12.3f | %-12.2f %-12.2f\n", to_ms(mi),
                es.accuracy, pl.accuracy, es.fct_avg, pl.fct_avg);
  }
  std::printf(
      "\nPaper Fig. 11 shape: PARALEON accuracy ~100%% at every interval;\n"
      "naive sketch accuracy rises with the interval but stays below;\n"
      "PARALEON FCT <= naive-sketch FCT throughout.\n");
  TrendReport trend("fig11_interval");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
