// Fig. 8 reproduction: traffic dynamics with a workload "influx".
//
// An LLM alltoall runs as background; a 30 ms FB_Hadoop burst arrives and
// competes. Runtime throughput and RTT time series are printed per scheme.
// Reproduced shape: during the influx PARALEON drops RTT (mice-dominant
// FSD -> delay-friendly setting) below the other schemes, then restores
// throughput for the remaining elephants after the burst.
//
// The scheme table runs scenarios/fig8_influx.json through the scenario
// engine's GridRunner (`--jobs N` fans the scheme cells out). Every other
// run of the scenario (traced cells, seed sweeps, flight bundles and their
// replays) goes through paraleon_run.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

BenchCli g_cli;

void print_table_header(const ExperimentConfig& cfg) {
  print_header("Fig. 8: runtime throughput & RTT across a FB_Hadoop influx",
               scaling_note(cfg,
                            "LLM alltoall background + 30 ms FB_Hadoop burst "
                            "@40% load (paper: 128 hosts @100G)"));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s\n", "", "before",
              "", "influx", "", "after", "");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s\n", "scheme", "Gbps",
              "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us");
}

/// The scheme table. The scheme axis runs through the GridRunner (--jobs
/// fans cells out); each row's phase columns are the file's named metrics.
int run_scenario_table(const scenario::Scenario& sc) {
  print_table_header(scenario::to_experiment_config(sc));

  TrendReport trend("fig8_influx");
  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  opts.on_config = [](const scenario::GridCell&, ExperimentConfig& cfg) {
    if (!g_cli.perf_out.empty()) cfg.obs.perf_counters = true;
  };
  opts.on_cell = [&trend](const scenario::GridCell&, Experiment& exp,
                          const scenario::FlowScheduler&) {
    if (exp.config().scheme == Scheme::kParaleon) add_perf_metrics(trend, exp);
  };
  const WallTimer wall;
  const scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();

  for (const scenario::CellResult& r : grid.results()) {
    const Scheme scheme =
        scenario::scheme_from_name(grid.cells()[r.index].scenario.scheme.name);
    std::printf("%-10s", scheme_name(scheme).c_str());
    print_phase_metrics(r);
    // A scheme with a controller registers its episode count.
    const auto episodes = r.scrape.instruments.find("controller.0.sa.episodes");
    if (episodes != r.scrape.instruments.end()) {
      std::printf("  (episodes=%.0f)", episodes->second);
    }
    std::printf("\n");
    if (scheme == Scheme::kParaleon) {
      trend.add("before_tput_gbps", cell_metric(r, "before_tput_gbps"),
                "Gbps");
      trend.add("influx_rtt_us", cell_metric(r, "influx_rtt_us"), "us");
      trend.add("after_tput_gbps", cell_metric(r, "after_tput_gbps"), "Gbps");
      trend.add("fct_finished", static_cast<double>(r.scrape.flows_finished),
                "flows");
      if (episodes != r.scrape.instruments.end()) {
        trend.add("episodes", episodes->second, "episodes");
      }
    }
  }
  std::printf(
      "\nPaper Fig. 8 shape: PARALEON shows the lowest RTT during the\n"
      "influx window and the highest throughput after it.\n");

  trend.add("grid_wall_seconds", grid_seconds, "s");
  write_trend(g_cli.perf_out, trend);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv, kTiny | kJobs | kPerfOut);
  return run_with_scenario("fig8_influx.json", g_cli.tiny,
                           run_scenario_table);
}
