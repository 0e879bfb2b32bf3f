// Fig. 13 reproduction (testbed experiment, simulated): average alltoall
// bandwidth vs number of workers for Default / Expert / PARALEON.
//
// Paper: NCCL alltoall on 8..32 H100 nodes at 400G, 30 ms monitor
// interval; PARALEON beats both static settings by up to 19.5%.
// Reproduced shape: PARALEON adapts to each collective scale and matches
// or beats the better static preset at every scale.
//
// The scheme x scale grid comes from scenarios/fig13_alltoall.json: the
// scenario engine's GridRunner expands the two sweep axes (scheme outer,
// scale inner — the order print_grid reads the results in) and fans
// the cells through exec::parallel_map (`--jobs N`). The printed table is
// identical at any worker count because results come back in cell order.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

BenchCli g_cli;

void print_grid_header(const scenario::Scenario& sc) {
  print_header("Fig. 13: alltoall bandwidth vs collective scale",
               scaling_note(scenario::to_experiment_config(sc),
                            "8..32 workers, 512KB flows (paper: 8..32 H100 "
                            "nodes @400G testbed)"));
  std::printf("%-10s", "scheme");
  for (const auto& v : sc.sweep[1].values) {
    const long long n = v.as_int64();
    std::printf("%8lldx%-4lld", n, n);
  }
  std::printf("\n");
}

/// Prints the scheme x scale table from the cell-ordered results (rows
/// are the scheme axis, columns the worker axis; a cell's value is the
/// file's metric, the steady-tail mean goodput) and fills the trend rows.
/// Returns the total event count.
std::uint64_t print_grid(const scenario::Scenario& sc,
                         const std::vector<scenario::CellResult>& results,
                         TrendReport& trend) {
  std::size_t cell = 0;
  std::uint64_t total_events = 0;
  for (const auto& s : sc.sweep[0].values) {
    const std::string scheme =
        scheme_name(scenario::scheme_from_name(s.as_string()));
    std::printf("%-10s", scheme.c_str());
    for (const auto& scale : sc.sweep[1].values) {
      const scenario::CellResult& r = results[cell++];
      std::printf("%10.2f  ", r.value);
      trend.add("bw_" + scheme + "_" + std::to_string(scale.as_int64()) +
                    "_gbps",
                r.value, "Gbps");
      total_events += r.scrape.events_executed;
    }
    std::printf("\n");
  }
  return total_events;
}

void print_footer() {
  std::printf(
      "\nValues: mean aggregate goodput (Gbps) over the steady half of the\n"
      "run. Paper Fig. 13 shape: PARALEON >= max(Default, Expert) at every\n"
      "scale, by up to 19.5%%.\n");
}

/// The scheme x scale grid from scenarios/fig13_alltoall.json.
int run_scenario_grid(const scenario::Scenario& sc) {
  print_grid_header(sc);

  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  const WallTimer wall;
  const scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();

  TrendReport trend("fig13_alltoall_scale");
  const std::uint64_t total_events = print_grid(sc, grid.results(), trend);
  trend.add("events_executed", static_cast<double>(total_events), "events");
  trend.add("wall_seconds", grid_seconds, "s");
  trend.add("grid_wall_seconds", grid_seconds, "s");
  print_footer();

  write_trend(g_cli.perf_out, trend);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv, kTiny | kJobs | kPerfOut);
  return run_with_scenario("fig13_alltoall.json", g_cli.tiny,
                           run_scenario_grid);
}
