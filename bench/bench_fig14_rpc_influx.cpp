// Fig. 14 reproduction (testbed experiment, simulated): runtime bandwidth
// and latency with a SolarRPC influx over an alltoall background.
//
// Paper: 32-node alltoall background; a SolarRPC burst (all mice <128 KB,
// Poisson WRITEs) arrives for a window. PARALEON drops latency while the
// mice dominate, then restores bandwidth; Default/Expert cannot adapt.
//
// The scheme table runs scenarios/fig14_rpc_influx.json through the
// scenario engine's GridRunner; the header's note is the file's
// description, and the phase columns are its named metrics.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

int run(const scenario::Scenario& sc) {
  print_header("Fig. 14: runtime bandwidth & latency with SolarRPC influx",
               scenario_note(sc));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "", "before",
              "", "burst", "", "after", "", "rpc");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "scheme",
              "Gbps", "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us",
              "p99_slow");

  // The phase columns are the file's named metrics; the RPC tail is every
  // SolarRPC flow, each a mouse under 128 KB.
  std::vector<double> rpc_p99_slowdown(cell_count(sc));
  scenario::GridOptions opts;
  opts.on_cell = [&](const scenario::GridCell& cell, Experiment& exp,
                     const scenario::FlowScheduler&) {
    rpc_p99_slowdown[cell.index] =
        stats::quantile(exp.fct().slowdowns(0, 128 << 10), 0.99);
  };
  const scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  for (const scenario::CellResult& r : grid.results()) {
    const Scheme scheme =
        scenario::scheme_from_name(grid.cells()[r.index].scenario.scheme.name);
    std::printf("%-10s", scheme_name(scheme).c_str());
    print_phase_metrics(r);
    std::printf(" | %10.2f\n", rpc_p99_slowdown[r.index]);
  }
  std::printf(
      "\nPaper Fig. 14 shape: PARALEON has the lowest latency (and best\n"
      "RPC tail) during the burst and recovers bandwidth fastest after\n"
      "it.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig14_rpc_influx.json", false, run);
}
