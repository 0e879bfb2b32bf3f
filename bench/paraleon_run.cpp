// paraleon_run: execute any scenarios/*.json file through the scenario
// engine — the generic front door the per-figure benches specialize.
//
//   paraleon_run scenarios/mixed_multitenant.json --tiny --jobs 4
//
// A scenario WITHOUT a sweep section runs as one experiment with the full
// single-run observability surface (--trace per-run dumps, --flight
// anomaly bundles, --perf event-loop economics). A scenario WITH a sweep
// runs the whole cross-product through the GridRunner and writes one
// paraleon.grid.v1 document (default <obs-out>/<name>.grid.json, override
// with --grid-out) plus its Perfetto timeline next to it
// (<grid>.timeline.json); --grid-check re-runs the grid serially and
// byte-compares the deterministic half, and --perf-out writes a
// paraleon.bench.v1 document with the grid's wall time and per-cell
// metric values. A failed write exits 1.
// Per-run artifacts (--trace/--flight) are rejected in grid mode: cells
// run concurrently and would collide on the output files. The grid
// artifacts (--grid-out/--grid-check) are rejected on a sweep-less
// scenario: there is no grid to write or re-run.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;
std::string g_grid_out;     // --grid-out FILE; empty = <obs-out>/<name>
bool g_grid_check = false;  // --grid-check

/// Consumes the grid-only flags, which no other bench takes, from argv
/// (in place) before the shared ObsCli parser sees it. Returns the new
/// argc; a `--grid-out` missing its value is left for the usage check.
int take_grid_flags(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grid-check") == 0) {
      g_grid_check = true;
    } else if (std::strcmp(argv[i], "--grid-out") == 0 && i + 1 < argc) {
      g_grid_out = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s SCENARIO.json [--tiny] [--jobs N] [--obs-out DIR]\n"
      "       [--trace] [--flight] [--perf] [--perf-out FILE]\n"
      "       [--grid-out FILE] [--grid-check]\n"
      "N is a non-negative integer.\n"
      "See docs/SCENARIOS.md for the scenario schema and grid semantics.\n",
      argv0);
  return 2;
}

int run_single(const scenario::Scenario& sc) {
  if (!g_grid_out.empty() || g_grid_check) {
    std::fprintf(stderr,
                 "paraleon_run: --grid-out/--grid-check are grid artifacts, "
                 "but %s has no sweep section. Add a sweep or drop the "
                 "flag.\n",
                 sc.name.c_str());
    return 2;
  }
  ExperimentConfig cfg = scenario::to_experiment_config(sc);
  apply_obs_cli(g_cli, cfg);
  Experiment exp(cfg);
  scenario::FlowScheduler flows(sc, &exp);
  flows.install_all();
  if (sc.scheme.force_trigger && exp.controller() != nullptr) {
    exp.controller()->force_trigger();
  }
  print_header("scenario: " + sc.name,
               scaling_note(cfg, sc.description.empty() ? "scenario run"
                                                        : sc.description));
  const WallTimer wall;
  exp.run();
  const double seconds = wall.seconds();
  const double value = scenario::evaluate_metric(sc, exp);
  std::printf("%-24s %14s %18s\n", "metric", "value", "digest");
  std::printf("%-24s %14.4f %18llx\n", sc.metric.name.c_str(), value,
              static_cast<unsigned long long>(run_digest(exp)));
  std::printf("# run: %llu events in %.2fs wall\n",
              static_cast<unsigned long long>(run_meta(exp).events_executed),
              seconds);
  if (!exp.flight_bundle_dir().empty()) {
    std::printf("# flight bundle: %s\n", exp.flight_bundle_dir().c_str());
  }
  if (!dump_obs(g_cli, exp, sc.name)) return 1;
  if (!g_cli.perf_out.empty()) {
    TrendReport trend(sc.name);
    trend.add("metric_" + sc.metric.name, value);
    trend.add("fct_finished", static_cast<double>(exp.fct().finished()),
              "flows");
    add_perf_metrics(trend, exp);
    write_trend(g_cli, trend);
  }
  return 0;
}

int run_grid_mode(const scenario::Scenario& sc) {
  if (g_cli.trace || g_cli.flight || g_cli.flight_fault) {
    std::fprintf(stderr,
                 "paraleon_run: --trace/--flight are per-run artifacts; a "
                 "grid runs cells concurrently and they would collide. Run "
                 "the interesting cell as its own sweep-less scenario.\n");
    return 2;
  }
  obs::PoolTelemetry pool;
  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  opts.perf_counters = g_cli.perf;
  opts.telemetry = &pool;

  print_header("scenario grid: " + sc.name,
               scaling_note(scenario::to_experiment_config(sc),
                            sc.description.empty() ? "scenario grid"
                                                   : sc.description));
  const WallTimer wall;
  scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();
  grid.set_wall_seconds(grid_seconds);

  std::printf("%-5s %-44s %14s %18s\n", "cell", "coords",
              sc.metric.name.c_str(), "digest");
  for (std::size_t i = 0; i < grid.results().size(); ++i) {
    const scenario::CellResult& r = grid.results()[i];
    std::printf("%-5zu %-44s %14.4f %18llx\n", r.index,
                scenario::coords_label(grid.cells()[i]).c_str(), r.value,
                static_cast<unsigned long long>(r.digest));
  }
  std::printf("# grid: %zu cells in %.2fs wall (jobs=%d)\n",
              grid.results().size(), grid_seconds, g_cli.jobs);

  const std::string grid_path = g_grid_out.empty()
                                    ? g_cli.out_dir + "/" + sc.name +
                                          ".grid.json"
                                    : g_grid_out;
  if (!write_grid(grid, grid_path)) return 1;

  if (!g_cli.perf_out.empty()) {
    TrendReport trend(sc.name);
    trend.add("grid_wall_seconds", grid_seconds, "s");
    trend.add("grid_cells", static_cast<double>(grid.results().size()),
              "cells");
    for (const auto& r : grid.results()) {
      trend.add("cell" + std::to_string(r.index) + "_" + sc.metric.name,
                r.value);
    }
    write_trend(g_cli, trend);
  }

  if (g_grid_check) {
    scenario::GridOptions serial = opts;
    serial.jobs = 1;
    serial.telemetry = nullptr;
    const scenario::GridOutcome again = scenario::run_grid(sc, serial);
    if (again.to_json(false) != grid.to_json(false)) {
      std::fprintf(stderr,
                   "grid-check: deterministic half differs between jobs=%d "
                   "and jobs=1\n",
                   g_cli.jobs);
      return 1;
    }
    std::printf("# grid-check: deterministic half byte-identical at jobs=%d "
                "and jobs=1\n",
                g_cli.jobs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  argc = take_grid_flags(argc, argv);
  g_cli = parse_obs_cli(argc, argv);
  const int rest = strip_obs_cli(argc, argv);
  if (rest != 2 || argv[1][0] == '-') return usage(argv[0]);
  const std::string path = argv[1];
  try {
    const scenario::Scenario sc =
        scenario::load_scenario_file(path, g_cli.tiny);
    return sc.sweep.empty() ? run_single(sc) : run_grid_mode(sc);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
