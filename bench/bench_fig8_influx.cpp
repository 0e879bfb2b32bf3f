// Fig. 8 reproduction: traffic dynamics with a workload "influx".
//
// An LLM alltoall runs as background; a 30 ms FB_Hadoop burst arrives and
// competes. Runtime throughput and RTT time series are printed per scheme.
// Reproduced shape: during the influx PARALEON drops RTT (mice-dominant
// FSD -> delay-friendly setting) below the other schemes, then restores
// throughput for the remaining elephants after the burst.
//
// Every mode runs scenarios/fig8_influx.json: the scheme table through
// the scenario engine's GridRunner (`--jobs N` fans the scheme cells
// out), the sweep as the scenario's `paraleon` cell over a `seed` grid
// axis, and the flight-fault / replay modes from the `paraleon` cell.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runner/flight.hpp"
#include "scenario/flow_scheduler.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;
scenario::Scenario g_paraleon;  // the scenario's paraleon cell

/// The `paraleon` cell of the (full or --tiny) fig8 scenario.
scenario::Scenario paraleon_cell(const scenario::Scenario& pack) {
  for (scenario::GridCell& cell : scenario::expand_grid(pack)) {
    if (cell.scenario.scheme.name == "paraleon") {
      return std::move(cell.scenario);
    }
  }
  throw scenario::ScenarioError(pack.name + ": no paraleon cell in the sweep");
}

ExperimentConfig paraleon_config() {
  ExperimentConfig cfg = scenario::to_experiment_config(g_paraleon);
  apply_obs_cli(g_cli, cfg);
  return cfg;
}

/// Builds the PARALEON experiment and installs the cell's workloads, as
/// scenario::run_cell does for the table. A replay MUST install the
/// identical workloads: the bundle stores only seed + horizon,
/// determinism does the rest.
std::unique_ptr<Experiment> make_paraleon(ExperimentConfig cfg) {
  auto exp = std::make_unique<Experiment>(std::move(cfg));
  scenario::FlowScheduler(g_paraleon, exp.get()).install_all();
  if (g_paraleon.scheme.force_trigger && exp->controller() != nullptr) {
    exp->controller()->force_trigger();
  }
  return exp;
}

/// --flight-fault: trip the flight recorder on demand by corrupting ToR 0's
/// MMU accounting mid-run; the kFull invariant checker throws CheckFailure
/// and the armed recorder dumps a "check_failure" bundle. Exit 0 iff the
/// bundle landed (CI validates and replays it afterwards).
int run_flight_fault() {
  ExperimentConfig cfg = paraleon_config();
  cfg.invariants.level = check::CheckLevel::kFull;
  const std::unique_ptr<Experiment> exp = make_paraleon(std::move(cfg));
  const Time fault_at = g_cli.tiny ? milliseconds(10) : milliseconds(80);
  exp->simulator().schedule_at(fault_at, [e = exp.get()] {
    e->topology().tor(0).inject_buffer_accounting_fault(4096);
  });
  try {
    exp->run();
    std::fprintf(stderr, "flight-fault: injected fault was not detected\n");
    return 1;
  } catch (const check::CheckFailure&) {
    if (exp->flight_bundle_dir().empty()) {
      std::fprintf(stderr, "flight-fault: CheckFailure but no bundle\n");
      return 1;
    }
    std::printf("# flight bundle: %s\n", exp->flight_bundle_dir().c_str());
  }
  return 0;
}

/// --replay-flight BUNDLE: re-run the bundle's seed with every trace
/// category forced on up to just past the trigger, writing the Perfetto
/// trace of the anomaly window back into the bundle. The other flags
/// (--tiny in particular) must match the invocation that wrote it.
int run_replay(const std::string& bundle) {
  ReplayRequest req;
  if (!load_replay_request(bundle, &req)) {
    std::fprintf(stderr, "replay-flight: cannot read %s/replay.cfg\n",
                 bundle.c_str());
    return 1;
  }
  ExperimentConfig cfg = paraleon_config();
  apply_replay(cfg, req);
  const std::unique_ptr<Experiment> exp = make_paraleon(std::move(cfg));
  exp->run();
  if (!write_replay_outputs(*exp, bundle)) {
    std::fprintf(stderr, "replay-flight: cannot write replay outputs\n");
    return 1;
  }
  std::printf(
      "# replay: wrote %s/replay.trace.json (trigger at %lld ns, window "
      "0..%lld ns)\n",
      bundle.c_str(), static_cast<long long>(req.trigger_ns),
      static_cast<long long>(req.replay_until_ns));
  return 0;
}

/// The `paraleon` cell with a `seed` axis of n values 100..100+n-1: a seed
/// sweep is a grid like any other.
scenario::Scenario seed_sweep(int n) {
  using scenario::Json;
  Json seeds = Json::make_array();
  for (int i = 0; i < n; ++i) seeds.push_back(Json::make_int(100 + i));
  Json axis = Json::make_object();
  axis.set("key", Json::make_string("seed"));
  axis.set("values", std::move(seeds));
  Json axes = Json::make_array();
  axes.push_back(std::move(axis));
  Json sweep = Json::make_object();
  sweep.set("axes", std::move(axes));
  Json doc = g_paraleon.doc;
  doc.set("sweep", std::move(sweep));
  return scenario::parse_scenario(doc, g_paraleon.name + " seed sweep");
}

/// --sweep N: run the fig8 PARALEON cell over N seeds as a `seed` grid
/// twice — once serial (jobs=1), once on the thread pool (--jobs, <=1
/// meaning one worker per hardware thread) — and byte-compare the
/// deterministic halves of the two grid documents, as paraleon_run
/// --grid-check does. The parallel leg is written as
/// <obs-out>/fig8_sweep.grid.json plus its timeline; with --perf-out the
/// sweep's wall economics land as a paraleon.bench.v1 document (the
/// ungated sweep_* rows of BENCH_fig8.json). Exit nonzero on a mismatch
/// or a failed write: the determinism contract of docs/PARALLELISM.md,
/// checked on the real bench workload.
int run_sweep(int n) {
  const scenario::Scenario sweep = seed_sweep(n);
  obs::PoolTelemetry pool;
  const auto timed = [&sweep](int jobs, obs::PoolTelemetry* telemetry) {
    scenario::GridOptions opts;
    opts.jobs = jobs;
    opts.telemetry = telemetry;
    opts.on_config = [](const scenario::GridCell&, ExperimentConfig& cfg) {
      apply_obs_cli(g_cli, cfg);
    };
    const WallTimer wall;
    scenario::GridOutcome grid = scenario::run_grid(sweep, opts);
    grid.set_wall_seconds(wall.seconds());
    return grid;
  };

  const int par_jobs = g_cli.jobs <= 1 ? 0 : g_cli.jobs;
  std::printf("# sweep: %d seeds, serial then jobs=%d (0 = hardware)\n", n,
              par_jobs);
  const scenario::GridOutcome serial = timed(1, nullptr);
  const scenario::GridOutcome parallel = timed(par_jobs, &pool);
  for (const scenario::CellResult& r : parallel.results()) {
    std::printf("# sweep: seed %llu %s %.4f digest %016llx\n",
                static_cast<unsigned long long>(r.seed),
                sweep.metric.name.c_str(), r.value,
                static_cast<unsigned long long>(r.digest));
  }

  const bool match = serial.to_json(false) == parallel.to_json(false);
  const double serial_s = serial.wall_seconds();
  const double parallel_s = parallel.wall_seconds();
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  std::printf("# sweep: serial %.2fs, parallel %.2fs (%.2fx), digests %s\n",
              serial_s, parallel_s, speedup, match ? "MATCH" : "MISMATCH");

  // Worker utilization of the parallel leg: busy time over workers x wall
  // window (100% = every worker busy for the whole sweep).
  double busy_s = 0.0;
  for (const auto& w : pool.worker_stats()) {
    busy_s += static_cast<double>(w.busy_ns) / 1e9;
  }
  const double denom =
      static_cast<double>(pool.workers()) * pool.wall_seconds();
  const double util_pct = denom > 0.0 ? busy_s / denom * 100.0 : 0.0;
  std::printf("# sweep: %d workers, %.1f%% busy, %llu jobs\n",
              pool.workers(), util_pct,
              static_cast<unsigned long long>(pool.jobs_completed()));

  const bool wrote =
      write_grid(parallel, g_cli.out_dir + "/fig8_sweep.grid.json");

  if (!g_cli.perf_out.empty()) {
    TrendReport trend("fig8_influx");
    trend.add("sweep_serial_seconds", serial_s, "s");
    trend.add("sweep_parallel_seconds", parallel_s, "s");
    trend.add("sweep_speedup", speedup, "x");
    trend.add("sweep_worker_utilization_pct", util_pct, "%");
    write_trend(g_cli, trend);
  }

  if (!match) {
    std::fprintf(stderr,
                 "sweep: parallel grid diverged from serial — the "
                 "determinism contract is broken\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

/// The fig8 reporting phases.
struct Fig8Phases {
  Time before_start, influx_start, influx_end, tail_start, end;
};

Fig8Phases fig8_phases(Time end) {
  Fig8Phases p;
  p.before_start = g_cli.tiny ? milliseconds(5) : milliseconds(60);
  p.influx_start = g_cli.tiny ? milliseconds(20) : milliseconds(120);
  p.influx_end = g_cli.tiny ? milliseconds(35) : milliseconds(150);
  p.tail_start = end - (g_cli.tiny ? milliseconds(20) : milliseconds(100));
  p.end = end;
  return p;
}

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

/// Per-cell phase means harvested by the grid's on_cell hook (slots are
/// preallocated and indexed by cell, so pool threads never contend).
struct Fig8Slot {
  double before_tput = 0, before_rtt = 0;
  double influx_tput = 0, influx_rtt = 0;
  double after_tput = 0, after_rtt = 0;
  double episodes = -1;  // -1 = scheme has no controller
  std::uint64_t fct_finished = 0;
};

/// Default mode: the scheme table. The scheme axis runs through the
/// GridRunner (--jobs fans cells out).
int run_scenario_table(const scenario::Scenario& sc) {
  print_table_header(paraleon_config());

  std::size_t n_cells = 1;
  for (const auto& axis : sc.sweep) n_cells *= axis.values.size();
  std::vector<Fig8Slot> slots(n_cells);
  TrendReport trend("fig8_influx");

  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  opts.on_config = [](const scenario::GridCell&, ExperimentConfig& cfg) {
    apply_obs_cli(g_cli, cfg);
  };
  opts.on_cell = [&slots, &trend](const scenario::GridCell& cell,
                                  Experiment& exp) {
    const Fig8Phases ph = fig8_phases(exp.config().duration);
    const auto& tput = exp.throughput_series();
    const auto& rtt = exp.rtt_series();
    Fig8Slot& slot = slots[cell.index];
    slot.before_tput = tput.mean_in(ph.before_start, ph.influx_start);
    slot.before_rtt = rtt.mean_in(ph.before_start, ph.influx_start);
    slot.influx_tput =
        tput.mean_in(ph.influx_start + milliseconds(2), ph.influx_end);
    slot.influx_rtt =
        rtt.mean_in(ph.influx_start + milliseconds(2), ph.influx_end);
    slot.after_tput = tput.mean_in(ph.tail_start, ph.end);
    slot.after_rtt = rtt.mean_in(ph.tail_start, ph.end);
    if (exp.controller() != nullptr) {
      slot.episodes = static_cast<double>(exp.controller()->episodes());
    }
    slot.fct_finished = exp.fct().finished();
    if (cell.scenario.scheme.name == "paraleon") {
      dump_obs(g_cli, exp, "fig8_paraleon");
      add_perf_metrics(trend, exp);
    }
  };

  const WallTimer wall;
  const scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();

  for (std::size_t i = 0; i < grid.cells().size(); ++i) {
    const scenario::GridCell& cell = grid.cells()[i];
    const Fig8Slot& slot = slots[i];
    std::printf("%-10s",
                scheme_name(scenario::scheme_from_name(
                                cell.scenario.scheme.name))
                    .c_str());
    std::printf(" | %8.2f %8.2f", slot.before_tput, slot.before_rtt);
    std::printf(" | %8.2f %8.2f", slot.influx_tput, slot.influx_rtt);
    std::printf(" | %8.2f %8.2f", slot.after_tput, slot.after_rtt);
    if (slot.episodes >= 0) {
      std::printf("  (episodes=%.0f)", slot.episodes);
    }
    std::printf("\n");
    if (cell.scenario.scheme.name == "paraleon") {
      trend.add("before_tput_gbps", slot.before_tput, "Gbps");
      trend.add("influx_rtt_us", slot.influx_rtt, "us");
      trend.add("after_tput_gbps", slot.after_tput, "Gbps");
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
  write_trend(g_cli, trend);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv);
  try {
    const scenario::Scenario pack = scenario::load_scenario_file(
        scenario_path("fig8_influx.json"), g_cli.tiny);
    g_paraleon = paraleon_cell(pack);
    if (!g_cli.replay_bundle.empty()) return run_replay(g_cli.replay_bundle);
    if (g_cli.flight_fault) return run_flight_fault();
    if (g_cli.sweep > 0) return run_sweep(g_cli.sweep);
    return run_scenario_table(pack);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
}
