// Fig. 14 reproduction (testbed experiment, simulated): runtime bandwidth
// and latency with a SolarRPC influx over an alltoall background.
//
// Paper: 32-node alltoall background; a SolarRPC burst (all mice <128 KB,
// Poisson WRITEs) arrives for a window. PARALEON drops latency while the
// mice dominate, then restores bandwidth; Default/Expert cannot adapt.
//
// The scheme table runs scenarios/fig14_rpc_influx.json through the
// scenario engine's GridRunner; the header's note is the file's
// description.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// Per-cell table row harvested by the grid's on_cell hook.
struct Fig14Slot {
  PhaseMeans phases;
  double rpc_p99_slowdown = 0;
};

int run(const scenario::Scenario& sc, const BenchCli& cli) {
  const WallTimer wall;
  print_header("Fig. 14: runtime bandwidth & latency with SolarRPC influx",
               scaling_note(scenario::to_experiment_config(sc),
                            sc.description));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "", "before",
              "", "burst", "", "after", "", "rpc");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "scheme",
              "Gbps", "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us",
              "p99_slow");

  // The scheme axis leaves the burst where the base file puts it.
  const InfluxWindow burst = influx_window(sc);
  std::vector<Fig14Slot> slots(cell_count(sc));
  scenario::GridOptions opts;
  opts.on_cell = [&](const scenario::GridCell& cell, Experiment& exp) {
    Fig14Slot& slot = slots[cell.index];
    slot.phases = phase_means(exp, burst, milliseconds(60),
                              burst.stop + milliseconds(20));
    // The RPC tail: every SolarRPC flow is a mouse under 128 KB.
    slot.rpc_p99_slowdown =
        stats::quantile(exp.fct().slowdowns(0, 128 << 10), 0.99);
  };
  const scenario::GridOutcome grid = scenario::run_grid(sc, opts);

  for (std::size_t i = 0; i < grid.cells().size(); ++i) {
    std::printf("%-10s", scheme_name(scenario::scheme_from_name(
                                         grid.cells()[i].scenario.scheme.name))
                             .c_str());
    print_phase_means(slots[i].phases);
    std::printf(" | %10.2f\n", slots[i].rpc_p99_slowdown);
  }
  std::printf(
      "\nPaper Fig. 14 shape: PARALEON has the lowest latency (and best\n"
      "RPC tail) during the burst and recovers bandwidth fastest after\n"
      "it.\n");
  TrendReport trend("fig14_rpc_influx");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  return run_with_scenario(
      "fig14_rpc_influx.json", false,
      [&cli](const scenario::Scenario& sc) { return run(sc, cli); });
}
