// paraleon_run: execute any scenarios/*.json file through the scenario
// engine — the one front door.
//
//   paraleon_run scenarios/mixed_multitenant.json --tiny --jobs 4
//
// Every file runs as a grid through the GridRunner: a file WITH a sweep
// runs its whole cross-product, a sweep-less file is a grid of one cell.
// Every run prints one row per cell: its coords ("-" for the one cell of
// a sweep-less file), headline metric, named metrics and digest. It
// writes one paraleon.grid.v1 document (default <obs-out>/<name>.grid.json,
// override with --grid-out) plus its Perfetto timeline next to it
// (<grid>.timeline.json); --grid-check re-runs the grid serially and
// byte-compares the deterministic half. --trace turns on
// every trace category and the PerfMonitor, and writes every cell's dumps
// to <obs-out> as <name>.cell<i>.*.
//
// --flight arms the anomaly triggers (bundles land under <obs-out>/flight);
// --replay-flight BUNDLE re-runs the bundle's seed with every trace
// category on and writes the trace of the anomaly window back into the
// bundle. Both need a one-cell grid, since the cells of a bigger one would
// share one flight/ directory. A bad flag exits 2; a failed write or an
// invariant CheckFailure exits 1.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "runner/flight.hpp"
#include "stats/csv_export.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct FlagSpec {
  const char* name;
  const char* value;  // nullptr for a switch, else the value's usage name
};

constexpr FlagSpec kFlags[] = {
    {"--tiny", nullptr},
    {"--obs-out", "DIR"},
    {"--trace", nullptr},
    {"--flight", nullptr},
    {"--replay-flight", "BUNDLE"},
    {"--jobs", "N"},
    {"--grid-out", "FILE"},
    {"--grid-check", nullptr},
};

struct ObsCli {
  std::string scenario;
  bool tiny = false;
  bool trace = false;
  bool flight = false;
  bool grid_check = false;
  std::string out_dir = ".";
  std::string replay_bundle;  // empty = no replay
  std::string grid_out;       // empty = <obs-out>/<name>.grid.json
  int jobs = 1;
};

ObsCli g_cli;

int usage(const char* argv0) {
  std::string flags;
  for (const FlagSpec& f : kFlags) {
    flags += std::string(" [") + f.name;
    if (f.value != nullptr) flags += std::string(" ") + f.value;
    flags += "]";
  }
  std::fprintf(stderr,
               "usage: %s SCENARIO.json%s\n"
               "--flight and --replay-flight need a sweep-less scenario. N "
               "is a non-negative integer.\n"
               "See docs/SCENARIOS.md for the scenario schema and grid "
               "semantics.\n",
               argv0, flags.c_str());
  return 2;
}

/// Sets the flag `a` (with `value`, nullptr for a switch) on g_cli. False
/// for an unknown flag, a value flag missing its value, or a `--jobs` value
/// that is not a non-negative integer.
bool set_flag(std::string_view a, const char* value) {
  if (a == "--tiny") {
    g_cli.tiny = true;
  } else if (a == "--trace") {
    g_cli.trace = true;
  } else if (a == "--flight") {
    g_cli.flight = true;
  } else if (a == "--grid-check") {
    g_cli.grid_check = true;
  } else if (value == nullptr) {
    return false;
  } else if (a == "--obs-out") {
    g_cli.out_dir = value;
  } else if (a == "--replay-flight") {
    g_cli.replay_bundle = value;
  } else if (a == "--grid-out") {
    g_cli.grid_out = value;
  } else if (a == "--jobs") {
    return parse_count(value, &g_cli.jobs);
  } else {
    return false;
  }
  return true;
}

/// Parses argv (one scenario path plus flags) into g_cli. False, after
/// naming any bad argument on stderr, when it does not parse.
bool parse_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (a == f.name) flag = &f;
    }
    if (flag == nullptr && !a.starts_with('-') && g_cli.scenario.empty()) {
      g_cli.scenario = argv[i];
      continue;
    }
    const char* value = nullptr;
    if (flag != nullptr && flag->value != nullptr && i + 1 < argc) {
      value = argv[++i];
    }
    if (!set_flag(a, value)) {
      std::fprintf(stderr, "%s: unexpected argument '%.*s'\n", argv[0],
                   static_cast<int>(a.size()), a.data());
      return false;
    }
  }
  return !g_cli.scenario.empty();
}

/// Applies the CLI to an experiment config: every trace category and the
/// event-loop PerfMonitor on with --trace, and with --flight the anomaly
/// triggers armed at thresholds that stay silent on a healthy run but fire
/// on a pause storm or drop burst.
void apply_obs_cli(ExperimentConfig& cfg) {
  if (g_cli.trace) {
    cfg.obs.trace = obs::TraceConfig::all_on();
    cfg.obs.perf_counters = true;
  }
  if (g_cli.flight) {
    cfg.obs.flight.armed = true;
    cfg.obs.flight.dir = g_cli.out_dir + "/flight";
    // >5% of link-time paused fabric-wide, or any burst of MMU drops
    // (lossless fabrics should never drop), or an SA revert.
    cfg.obs.flight.pause_ns_per_sec = 50'000'000;
    cfg.obs.flight.drop_burst = 8;
    cfg.obs.flight.on_sa_revert = true;
  }
}

/// Writes `<name>.trace.json` (Chrome trace-event format, Perfetto-
/// loadable), `<name>.obs.json` (counter registry + episode timelines)
/// and, for offline plotting, `<name>.throughput.csv`, `<name>.rtt.csv`
/// (per-MI `t_ms,value`) and `<name>.flows.csv` (completed flows) under
/// <obs-out> for a finished run. Returns false (after naming the files on
/// stderr) when any could not be written.
bool dump_obs(const Experiment& exp, const std::string& name) {
  const std::string base = g_cli.out_dir + "/" + name;
  std::ofstream trace(base + ".trace.json");
  trace << exp.simulator().obs().trace().to_json();
  trace.close();
  std::ofstream report(base + ".obs.json");
  report << runner::obs_report_json(exp).dump() << "\n";
  report.close();
  if (!trace || !report) {
    std::fprintf(stderr, "# obs: FAILED to write %s.{trace,obs}.json\n",
                 base.c_str());
    return false;
  }
  std::printf("# obs: wrote %s.trace.json and %s.obs.json\n", base.c_str(),
              base.c_str());
  const bool csv_ok =
      stats::write_timeseries_csv(base + ".throughput.csv",
                                  exp.throughput_series()) &&
      stats::write_timeseries_csv(base + ".rtt.csv", exp.rtt_series()) &&
      stats::write_flows_csv(base + ".flows.csv", exp.fct().completed());
  if (!csv_ok) {
    std::fprintf(stderr, "# obs: FAILED to write %s.*.csv\n", base.c_str());
    return false;
  }
  std::printf("# obs: wrote %s.{throughput,rtt,flows}.csv\n", base.c_str());
  return true;
}

/// Where a grid document's Chrome-trace timeline goes: next to it,
/// `x.grid.json` -> `x.grid.timeline.json`.
std::string timeline_path(const std::string& grid_path) {
  const std::string suffix = ".json";
  std::string timeline = grid_path;
  if (timeline.size() > suffix.size() &&
      timeline.compare(timeline.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
    timeline.resize(timeline.size() - suffix.size());
  }
  return timeline + ".timeline.json";
}

/// Names a grid document and timeline that could not be written; false.
bool grid_write_failed(const std::string& path) {
  std::fprintf(stderr, "# grid: FAILED to write %s and %s\n", path.c_str(),
               timeline_path(path).c_str());
  return false;
}

/// Creates both grid outputs before the first cell runs, so an unwritable
/// path fails at once instead of after the whole grid.
bool open_grid_outputs(const std::string& path) {
  return (std::ofstream(path) && std::ofstream(timeline_path(path))) ||
         grid_write_failed(path);
}

/// Writes a grid document to `path` and its timeline next to it. Returns
/// false (after naming the files on stderr) when either could not be
/// written.
bool write_grid(const scenario::GridOutcome& grid, const std::string& path) {
  const std::string timeline = timeline_path(path);
  if (!grid.write(path) || !grid.write_timeline(timeline)) {
    return grid_write_failed(path);
  }
  std::printf("# grid: wrote %s and %s\n", path.c_str(), timeline.c_str());
  return true;
}

/// Runs `sc` as a grid. A replay installs the scenario's workloads exactly
/// as the original run did: it reads only the seed and horizon from the
/// bundle's manifest, determinism does the rest.
int run(const scenario::Scenario& sc) {
  ReplayRequest replay;
  const bool replaying = !g_cli.replay_bundle.empty();
  if (replaying && !load_replay_request(g_cli.replay_bundle, &replay)) {
    std::fprintf(stderr, "replay-flight: cannot read %s/manifest.json\n",
                 g_cli.replay_bundle.c_str());
    return 1;
  }

  obs::PoolTelemetry pool;
  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  opts.telemetry = &pool;
  opts.on_config = [&](const scenario::GridCell&, ExperimentConfig& cfg) {
    apply_obs_cli(cfg);
    if (replaying) apply_replay(cfg, replay);
  };
  // Every cell writes its own dumps, so concurrent cells never share a
  // file; cell 4 of fig8_influx is its paraleon cell. Bundles and replays
  // belong to the one cell of a sweep-less file.
  std::atomic<bool> outputs_ok{true};
  opts.on_cell = [&](const scenario::GridCell& cell, Experiment& exp,
                     const scenario::FlowScheduler&) {
    if (!exp.flight_bundle_dir().empty()) {
      std::printf("# flight bundle: %s\n", exp.flight_bundle_dir().c_str());
    }
    if (replaying) {
      if (!write_replay_outputs(exp, g_cli.replay_bundle)) {
        std::fprintf(stderr, "replay-flight: cannot write replay outputs\n");
        outputs_ok = false;
      } else {
        std::printf(
            "# replay: wrote %s/replay.trace.json (trigger at %lld ns, "
            "window 0..%lld ns)\n",
            g_cli.replay_bundle.c_str(),
            static_cast<long long>(replay.trigger_ns),
            static_cast<long long>(replay.replay_until_ns));
      }
    }
    if (g_cli.trace &&
        !dump_obs(exp, sc.name + ".cell" + std::to_string(cell.index))) {
      outputs_ok = false;
    }
  };

  const std::string grid_path =
      g_cli.grid_out.empty() ? g_cli.out_dir + "/" + sc.name + ".grid.json"
                             : g_cli.grid_out;
  if (!open_grid_outputs(grid_path)) return 1;

  print_header("scenario grid: " + sc.name,
               scaling_note(scenario::to_experiment_config(sc),
                            sc.description.empty() ? "scenario grid"
                                                   : sc.description));
  const WallTimer wall;
  scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();
  grid.set_wall_seconds(grid_seconds);

  // The coords column is as wide as the run's widest label.
  std::vector<std::string> labels;
  int width = static_cast<int>(std::strlen("coords"));
  for (const scenario::GridCell& cell : grid.cells()) {
    labels.push_back(scenario::coords_label(cell));
    width = std::max(width, static_cast<int>(labels.back().size()));
  }
  // Then one column per metric, the headline and the file's named metrics
  // in name order, each at least as wide as its name.
  std::vector<std::string> columns = {sc.metric.name};
  for (const auto& [name, spec] : sc.metrics) columns.push_back(name);
  const auto column_width = [](const std::string& name) {
    return std::max(14, static_cast<int>(name.size()));
  };
  std::printf("%-5s %-*s", "cell", width, "coords");
  for (const std::string& name : columns) {
    std::printf(" %*s", column_width(name), name.c_str());
  }
  std::printf(" %18s\n", "digest");
  for (std::size_t i = 0; i < grid.results().size(); ++i) {
    const scenario::CellResult& r = grid.results()[i];
    std::printf("%-5zu %-*s %*.4f", r.index, width, labels[i].c_str(),
                column_width(columns[0]), r.value);
    for (std::size_t c = 1; c < columns.size(); ++c) {
      std::printf(" %*.4f", column_width(columns[c]),
                  r.metrics.at(columns[c]));
    }
    std::printf(" %18s\n", scenario::digest_hex(r.digest).c_str());
  }
  std::printf("# grid: %zu cells in %.2fs wall (jobs=%d)\n",
              grid.results().size(), grid_seconds, g_cli.jobs);

  if (!write_grid(grid, grid_path) || !outputs_ok) return 1;

  if (g_cli.grid_check) {
    // Same config hook (tracing moves the digests), no second output.
    scenario::GridOptions serial = opts;
    serial.jobs = 1;
    serial.telemetry = nullptr;
    serial.on_cell = nullptr;
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
  if (!parse_cli(argc, argv)) return usage(argv[0]);
  try {
    const scenario::Scenario sc =
        scenario::load_scenario_file(g_cli.scenario, g_cli.tiny);
    // Expanding checks every cell, its placement on its own fabric
    // included, before any output is opened.
    const std::size_t cells = scenario::expand_grid(sc).size();
    if (cells > 1 && (g_cli.flight || !g_cli.replay_bundle.empty())) {
      std::fprintf(stderr,
                   "paraleon_run: %s is a single-run flag, but %s has %zu "
                   "cells, which would share one flight/ directory. Run the "
                   "interesting cell as its own sweep-less scenario.\n",
                   g_cli.flight ? "--flight" : "--replay-flight",
                   sc.name.c_str(), cells);
      return usage(argv[0]);
    }
    return run(sc);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const check::CheckFailure&) {
    // The checker printed the diagnostic before throwing; an armed
    // recorder wrote its bundle before the run unwound.
    const std::string bundle = g_cli.out_dir + "/flight/flight_check_failure";
    if (g_cli.flight && std::filesystem::exists(bundle + "/manifest.json")) {
      std::printf("# flight bundle: %s\n", bundle.c_str());
    }
    std::fprintf(stderr, "paraleon_run: %s failed an invariant check\n",
                 g_cli.scenario.c_str());
    return 1;
  }
}
