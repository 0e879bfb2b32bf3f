// Fig. 6 reproduction: inter-parameter impacts — a 2-D sweep of
// rpg_time_reset x Kmax on throughput and RTT.
//
// Paper finding: driving both parameters in the throughput-friendly
// direction simultaneously (small rpg_time_reset + large Kmax) is NOT
// monotonically better — over-aggressive injection overshoots the
// equilibrium, triggering CNP/PFC storms and convex/concave artefacts.
//
// The grid is scenarios/fig6_inter_param.json: a 4:1 fabric with a scaled
// shallow buffer, so over-aggressive injection drives fabric queues into
// PFC — the mechanism behind the paper's artefacts.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

BenchCli g_cli;

struct Point {
  double tput_gbps = 0;
  double rtt_us = 0;
};

/// One table: rows are the rpg_time_reset axis, columns the kmax axis.
void print_table(const scenario::Scenario& sc, const char* title,
                 const std::vector<Point>& grid, double Point::*field) {
  const auto& resets = sc.sweep[0].values;
  const auto& kmaxes = sc.sweep[1].values;
  std::printf("\n%s:\n%-18s", title, "t_reset \\ kmax");
  for (const auto& k : kmaxes) {
    std::printf("%8lldKB", static_cast<long long>(k.as_int64()));
  }
  std::printf("\n");
  for (std::size_t r = 0; r < resets.size(); ++r) {
    std::printf("%-16.0fus", resets[r].as_double());
    for (std::size_t c = 0; c < kmaxes.size(); ++c) {
      std::printf("%10.2f", grid[r * kmaxes.size() + c].*field);
    }
    std::printf("\n");
  }
}

/// Both tables cover the metric window: after the ramp, to the end.
Point harvest(const scenario::GridCell& cell, Experiment& exp,
              const scenario::FlowScheduler&) {
  const Time from = milliseconds(cell.scenario.metric.from_ms);
  const Time to = exp.config().duration;
  return {exp.throughput_series().mean_in(from, to),
          exp.rtt_series().mean_in(from, to)};
}

/// The sweep moves kmax; kmin stays a quarter of it, as in the paper.
void kmin_follows_kmax(const scenario::GridCell&, ExperimentConfig& cfg) {
  cfg.custom_params.kmin_bytes = cfg.custom_params.kmax_bytes / 4;
}

int run(const scenario::Scenario& sc) {
  const WallTimer wall;
  print_header("Fig. 6: inter-parameter impact grid (rpg_time_reset x kmax)",
               scenario_note(sc));
  const auto grid = harvest_grid(sc, /*jobs=*/1, harvest, kmin_follows_kmax);
  print_table(sc, "Throughput (Gbps)", grid, &Point::tput_gbps);
  print_table(sc, "RTT (us)", grid, &Point::rtt_us);
  std::printf(
      "\nPaper Fig. 6 shape: along the 'both throughput-friendly' diagonal\n"
      "(towards top-right: small t_reset, large kmax) throughput is NOT\n"
      "monotone — the most aggressive corner should underperform some\n"
      "interior cell, and RTT grows sharply there.\n");
  write_wall_trend(g_cli.perf_out, "fig6_inter_param", wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv, kPerfOut);
  return run_with_scenario("fig6_inter_param.json", false, run);
}
