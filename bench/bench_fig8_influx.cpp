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

/// Per-cell phase means harvested by the grid's on_cell hook.
struct Fig8Slot {
  Scheme scheme = Scheme::kParaleon;
  PhaseMeans phases;
  double episodes = -1;  // -1 = scheme has no controller
  std::uint64_t fct_finished = 0;
};

/// The scheme table. The scheme axis runs through the GridRunner (--jobs
/// fans cells out).
int run_scenario_table(const scenario::Scenario& sc) {
  print_table_header(scenario::to_experiment_config(sc));

  TrendReport trend("fig8_influx");
  // The scheme axis leaves the burst where the base file puts it.
  const InfluxWindow influx = influx_window(sc);
  const Time before_start = milliseconds(g_cli.tiny ? 5 : 60);
  const Time tail = milliseconds(g_cli.tiny ? 20 : 100);

  const WallTimer wall;
  const auto slots = harvest_grid(
      sc, g_cli.jobs,
      [&](const auto&, auto& exp, const auto&) {
        Fig8Slot slot{exp.config().scheme,
                      phase_means(exp, influx, before_start,
                                  exp.config().duration - tail),
                      -1, exp.fct().finished()};
        if (exp.controller() != nullptr) {
          slot.episodes = static_cast<double>(exp.controller()->episodes());
        }
        if (slot.scheme == Scheme::kParaleon) add_perf_metrics(trend, exp);
        return slot;
      },
      [](const scenario::GridCell&, ExperimentConfig& cfg) {
        if (!g_cli.perf_out.empty()) cfg.obs.perf_counters = true;
      });
  const double grid_seconds = wall.seconds();

  for (const Fig8Slot& slot : slots) {
    std::printf("%-10s", scheme_name(slot.scheme).c_str());
    print_phase_means(slot.phases);
    if (slot.episodes >= 0) {
      std::printf("  (episodes=%.0f)", slot.episodes);
    }
    std::printf("\n");
    if (slot.scheme == Scheme::kParaleon) {
      trend.add("before_tput_gbps", slot.phases.before_tput, "Gbps");
      trend.add("influx_rtt_us", slot.phases.influx_rtt, "us");
      trend.add("after_tput_gbps", slot.phases.after_tput, "Gbps");
      trend.add("fct_finished", static_cast<double>(slot.fct_finished),
                "flows");
      if (slot.episodes >= 0) trend.add("episodes", slot.episodes,
                                        "episodes");
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
