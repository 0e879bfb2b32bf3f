// GridRunner: sweep expansion (row-major, first axis slowest; object
// values as dotted patches under their axis key), the
// jobs-invariant deterministic half of paraleon.grid.v1, a seed sweep as a
// `seed` axis, the on_cell hook's view of the installed workload, the wall
// subtree and pool timeline, and the committed scenario pack staying
// parseable in both full and tiny form.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "scenario/grid_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "workload/alltoall_workload.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif

namespace paraleon::scenario {
namespace {

/// Tiny dumbbell grid: 2x2 sweep, milliseconds of simulated time per
/// cell — cheap enough to run the whole cross-product twice.
Scenario grid_scenario() {
  return parse_scenario_text(R"({
    "name": "g",
    "seed": 11,
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "default"},
    "workload": [{"name": "rpc", "kind": "poisson", "load": 0.3}],
    "metric": {"name": "flows_finished"},
    "sweep": {"axes": [
      {"key": "scheme.name", "values": ["default", "dcqcn_plus"]},
      {"key": "workload.rpc.load", "values": [0.1, 0.3]}
    ]}
  })");
}

/// The same tiny dumbbell as a seed sweep: one `seed` axis of 3 values.
Scenario seed_scenario() {
  return parse_scenario_text(R"({
    "name": "s",
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "default"},
    "workload": [{"name": "rpc", "kind": "poisson", "load": 0.3}],
    "metric": {"name": "flows_finished"},
    "sweep": {"axes": [{"key": "seed", "values": [21, 22, 23]}]}
  })");
}

/// Counts the trace events of one phase ("M", "X", "s", "f"), optionally
/// only those with the given name.
std::size_t count_events(const Json& timeline, const std::string& ph,
                         const std::string& name = "") {
  std::size_t n = 0;
  for (const Json& ev : timeline.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() != ph) continue;
    if (name.empty() || ev.find("name")->as_string() == name) ++n;
  }
  return n;
}

TEST(ExpandGrid, RowMajorWithFirstAxisSlowest) {
  const std::vector<GridCell> cells = expand_grid(grid_scenario());
  ASSERT_EQ(cells.size(), 4u);
  const char* schemes[] = {"default", "default", "dcqcn_plus",
                           "dcqcn_plus"};
  const double loads[] = {0.1, 0.3, 0.1, 0.3};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[i].index, i);
    ASSERT_EQ(cells[i].coords.size(), 2u);
    EXPECT_EQ(cells[i].coords[0].first, "scheme.name");
    EXPECT_EQ(cells[i].coords[0].second.as_string(), schemes[i]);
    EXPECT_EQ(cells[i].coords[1].first, "workload.rpc.load");
    EXPECT_DOUBLE_EQ(cells[i].coords[1].second.as_double(), loads[i]);
    // The patches landed in the re-parsed scenario, sweep dropped.
    EXPECT_EQ(cells[i].scenario.scheme.name, schemes[i]);
    EXPECT_DOUBLE_EQ(cells[i].scenario.workload[0].load, loads[i]);
    EXPECT_TRUE(cells[i].scenario.sweep.empty());
    EXPECT_FALSE(cells[i].scenario.doc.has("sweep"));
  }
}

TEST(ExpandGrid, NoSweepExpandsToOneCell) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "single",
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].coords.empty());
  EXPECT_EQ(cells[0].scenario.name, "single");
}

TEST(ExpandGrid, AxisOverAnUnknownKeyFailsWithSuggestion) {
  Scenario sc = grid_scenario();
  sc.sweep[1].key = "workload.rpc.lod";
  try {
    expand_grid(sc);
    FAIL() << "expected a ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"load\""),
              std::string::npos)
        << e.what();
  }
}

/// A custom-scheme dumbbell whose sweep is `axes` (a JSON array body):
/// the shape of fig6, whose kmax axis moves kmax and kmin together.
Scenario custom_scenario(const std::string& axes) {
  return parse_scenario_text(R"({
    "name": "obj",
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "custom", "params": {"dcqcn.rpg_time_reset_us": 300}},
    "workload": [{"name": "rpc", "kind": "poisson", "load": 0.3}],
    "sweep": {"axes": )" + axes + "}}");
}

const char* kRpgAxis =
    R"({"key": "scheme.params.dcqcn.rpg_time_reset_us", "values": [30, 100]})";
const char* kKmaxAxis =
    R"({"key": "scheme.params", "values": [{"dcqcn.kmax_kb": 20, "dcqcn.kmin_kb": 5}]})";

/// The cell's scheme.params as key -> value.
std::map<std::string, double> params_of(const GridCell& cell) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : cell.scenario.scheme.params) {
    out[k] = v.as_double();
  }
  return out;
}

TEST(ExpandGrid, ObjectValueMergesWithASiblingAxisInEitherOrder) {
  for (const bool object_first : {true, false}) {
    SCOPED_TRACE(object_first ? "object axis first" : "object axis last");
    const std::string axes =
        object_first ? std::string("[") + kKmaxAxis + ", " + kRpgAxis + "]"
                     : std::string("[") + kRpgAxis + ", " + kKmaxAxis + "]";
    const std::vector<GridCell> cells = expand_grid(custom_scenario(axes));
    ASSERT_EQ(cells.size(), 2u);
    const double rpgs[] = {30, 100};
    for (std::size_t i = 0; i < 2; ++i) {
      const std::map<std::string, double> want = {
          {"dcqcn.kmax_kb", 20},
          {"dcqcn.kmin_kb", 5},
          {"dcqcn.rpg_time_reset_us", rpgs[i]}};
      EXPECT_EQ(params_of(cells[i]), want);
      const runner::ExperimentConfig cfg =
          to_experiment_config(cells[i].scenario);
      EXPECT_EQ(cfg.custom_params.kmax_bytes, 20 << 10);
      EXPECT_EQ(cfg.custom_params.kmin_bytes, 5 << 10);
    }
  }
}

TEST(ExpandGrid, ObjectValueWithAnUnknownMemberNamesTheCell) {
  const Scenario sc = custom_scenario(
      R"([{"key": "scheme.params", "values": [{"dcqcn.kmax_kb": 20},
                                              {"dcqcn.kmaxx_kb": 80}]}])");
  try {
    expand_grid(sc);
    FAIL() << "expected a ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("obj cell 1 (scheme.params={\"dcqcn.kmaxx_kb\": 80})"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean \"dcqcn.kmax_kb\""), std::string::npos)
        << what;
  }
}

TEST(ParseSweep, RejectsAnEmptyObjectValue) {
  try {
    custom_scenario(R"([{"key": "scheme.params", "values": [{}]}])");
    FAIL() << "expected a ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("sweep.axes[0].values"),
              std::string::npos)
        << e.what();
  }
}

TEST(CoordsLabel, PrintsAnObjectValueOnOneLine) {
  const std::vector<GridCell> cells = expand_grid(
      custom_scenario(std::string("[") + kRpgAxis + ", " + kKmaxAxis + "]"));
  EXPECT_EQ(coords_label(cells[0]),
            "scheme.params.dcqcn.rpg_time_reset_us=30 "
            "scheme.params={\"dcqcn.kmax_kb\": 20, \"dcqcn.kmin_kb\": 5}");
}

TEST(RunGrid, DeterministicHalfIsJobsInvariant) {
  const Scenario sc = grid_scenario();
  GridOptions serial;
  serial.jobs = 1;
  GridOptions fanned;
  fanned.jobs = 4;
  GridOutcome one = run_grid(sc, serial);
  GridOutcome four = run_grid(sc, fanned);
  // Wall halves differ (jobs is recorded there); the deterministic halves
  // must not, byte for byte.
  EXPECT_EQ(one.to_json(false), four.to_json(false));
  EXPECT_NE(one.to_json(true), four.to_json(true));
  ASSERT_EQ(four.results().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(four.results()[i].index, i);  // cell order, not finish order
    EXPECT_NE(four.results()[i].digest, 0u);
  }
  // Different scheme/load cells are genuinely different runs.
  EXPECT_NE(four.results()[0].digest, four.results()[3].digest);
}

TEST(RunGrid, RunCellReproducesTheGridCell) {
  const Scenario sc = grid_scenario();
  const std::vector<GridCell> cells = expand_grid(sc);
  const GridOutcome grid = run_grid(sc, {});
  const CellResult lone = run_cell(cells[2], {});
  EXPECT_EQ(lone.digest, grid.results()[2].digest);
  EXPECT_DOUBLE_EQ(lone.value, grid.results()[2].value);
  EXPECT_EQ(lone.seed, grid.results()[2].seed);
}

TEST(RunGrid, OnCellReadsAComponentThroughTheFlowScheduler) {
  // A bench's table can need a component's own counters (an alltoall's
  // completed rounds); on_cell hands over the cell's installed workload.
  const Scenario sc = parse_scenario_text(R"({
    "name": "a",
    "seed": 5,
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "default"},
    "workload": [{"name": "collective", "kind": "alltoall", "workers": 4,
                  "flow_kb": 16, "off_period_ms": 0.2}],
    "sweep": {"axes": [{"key": "scheme.name",
                        "values": ["default", "expert"]}]}
  })");
  std::vector<int> rounds(2, -1);
  GridOptions opts;
  opts.jobs = 2;
  opts.on_cell = [&rounds](const GridCell& cell, runner::Experiment&,
                           const FlowScheduler& flows) {
    EXPECT_EQ(flows.find("missing"), nullptr);
    const auto* a2a = dynamic_cast<const workload::AlltoallWorkload*>(
        flows.find("collective"));
    ASSERT_NE(a2a, nullptr);
    rounds[cell.index] = a2a->rounds_completed();
  };
  run_grid(sc, opts);
  for (const int r : rounds) EXPECT_GT(r, 0);
}

TEST(GridDoc, SchemaShapeAndWallSplit) {
  GridOutcome grid = run_grid(grid_scenario(), {});
  grid.set_wall_seconds(1.5);

  const Json det = Json::parse(grid.to_json(false));
  EXPECT_EQ(det.find("schema")->as_string(), "paraleon.grid.v1");
  EXPECT_EQ(det.find("scenario")->as_string(), "g");
  EXPECT_FALSE(det.has("wall"));
  ASSERT_TRUE(det.has("axes"));
  ASSERT_EQ(det.find("axes")->items().size(), 2u);
  EXPECT_EQ(det.find("axes")->items()[0].find("key")->as_string(),
            "scheme.name");
  const Json* cells = det.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 4u);
  for (const Json& cell : cells->items()) {
    // Digests are fixed-width lowercase hex strings (json numbers cannot
    // carry 64 bits losslessly).
    const std::string& digest = cell.find("digest")->as_string();
    ASSERT_EQ(digest.size(), 16u);
    for (const char c : digest) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
    EXPECT_TRUE(cell.find("coords")->is_object());
    EXPECT_TRUE(cell.has("fct"));
  }
  EXPECT_TRUE(det.has("aggregates"));

  const Json wall = Json::parse(grid.to_json(true));
  ASSERT_TRUE(wall.has("wall"));
  EXPECT_DOUBLE_EQ(wall.find("wall")->find("wall_seconds")->as_double(),
                   1.5);
}

TEST(GridDoc, AggregatesSummarizeTheCells) {
  const GridOutcome grid = run_grid(grid_scenario(), {});
  const std::map<std::string, runner::FleetAggregate> agg =
      grid.aggregates();
  ASSERT_TRUE(agg.count("metric_value"));
  EXPECT_EQ(agg.at("metric_value").n, 4u);
  EXPECT_LE(agg.at("metric_value").min, agg.at("metric_value").mean);
  EXPECT_LE(agg.at("metric_value").mean, agg.at("metric_value").max);
  ASSERT_TRUE(agg.count("events_executed"));
  EXPECT_GT(agg.at("events_executed").min, 0.0);
}

TEST(RunGrid, SeedAxisCellsAreDistinctAndMatchRunCell) {
  const Scenario sc = seed_scenario();
  const std::vector<GridCell> cells = expand_grid(sc);
  const GridOutcome grid = run_grid(sc, {});
  ASSERT_EQ(grid.results().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const CellResult& r = grid.results()[i];
    EXPECT_EQ(r.seed, 21u + i);  // the axis value is the cell's seed
    const CellResult lone = run_cell(cells[i], {});
    EXPECT_EQ(lone.digest, r.digest) << "seed " << r.seed;
    EXPECT_DOUBLE_EQ(lone.value, r.value);
  }
  // The seed reaches the workload streams: every seed is its own run.
  EXPECT_NE(grid.results()[0].digest, grid.results()[1].digest);
  EXPECT_NE(grid.results()[1].digest, grid.results()[2].digest);
  EXPECT_NE(grid.results()[0].digest, grid.results()[2].digest);
}

TEST(RunGrid, SeedAxisDeterministicHalfIsJobsInvariant) {
  const Scenario sc = seed_scenario();
  GridOptions fanned;
  fanned.jobs = 4;
  obs::PoolTelemetry pool;
  fanned.telemetry = &pool;
  const GridOutcome one = run_grid(sc, {});
  const GridOutcome four = run_grid(sc, fanned);
  EXPECT_EQ(one.to_json(false), four.to_json(false));
  EXPECT_EQ(pool.jobs_completed(), 3u);  // the fan-out really ran
}

/// A seed sweep on a real pool of 2 workers, with telemetry.
struct PooledGrid {
  obs::PoolTelemetry pool;
  GridOutcome grid;
  PooledGrid() : grid(run(&pool)) {}
  static GridOutcome run(obs::PoolTelemetry* pool) {
    GridOptions opts;
    opts.jobs = 2;
    opts.telemetry = pool;
    return run_grid(seed_scenario(), opts);
  }
};

TEST(GridDoc, WallCarriesPerWorkerStatsAndSpans) {
  const PooledGrid pooled;
  EXPECT_FALSE(Json::parse(pooled.grid.to_json(false)).has("wall"));

  const Json doc = Json::parse(pooled.grid.to_json(true));
  const Json* wall = doc.find("wall");
  ASSERT_NE(wall, nullptr);
  ASSERT_EQ(wall->find("pool")->find("workers")->as_int64(), 2);
  EXPECT_EQ(wall->find("pool")->find("jobs_completed")->as_int64(), 3);

  const auto& workers = wall->find("workers")->items();
  ASSERT_EQ(workers.size(), 2u);
  std::int64_t jobs = 0;
  for (const Json& w : workers) {
    jobs += w.find("jobs")->as_int64();
    EXPECT_GE(w.find("busy_seconds")->as_double(), 0.0);
    EXPECT_GE(w.find("idle_seconds")->as_double(), 0.0);
  }
  EXPECT_EQ(jobs, 3);

  std::int64_t waits = 0;
  for (const Json& b : wall->find("queue_wait_log2_us")->items()) {
    waits += b.as_int64();
  }
  EXPECT_EQ(waits, 3);

  const auto& spans = wall->find("spans")->items();
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Json& sp = spans[i];
    EXPECT_EQ(sp.find("job")->as_int64(), static_cast<std::int64_t>(i));
    const std::int64_t worker = sp.find("worker")->as_int64();
    EXPECT_TRUE(worker == 0 || worker == 1) << worker;
    EXPECT_LE(sp.find("submit_us")->as_double(),
              sp.find("start_us")->as_double());
    EXPECT_LE(sp.find("start_us")->as_double(),
              sp.find("end_us")->as_double());
  }
  EXPECT_TRUE(wall->find("stragglers")->is_array());
}

TEST(GridDoc, TimelineHasOneTrackPerWorkerAndOneSpanPerCell) {
  const PooledGrid pooled;
  const Json trace = Json::parse(pooled.grid.timeline_json());
  // One process_name, a submit track, and one thread_name per worker.
  EXPECT_EQ(count_events(trace, "M", "process_name"), 1u);
  EXPECT_EQ(count_events(trace, "M", "thread_name"), 1u + 2u);
  // One 'X' span per cell, labelled by its coordinates, each with a flow
  // arrow from its submission.
  EXPECT_EQ(count_events(trace, "X"), 3u);
  EXPECT_EQ(count_events(trace, "s"), 3u);
  EXPECT_EQ(count_events(trace, "f"), 3u);
  EXPECT_EQ(count_events(trace, "X", "cell 0 seed=21"), 1u);
  EXPECT_EQ(count_events(trace, "X", "cell 2 seed=23"), 1u);
  for (const Json& ev : trace.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    EXPECT_GE(ev.find("tid")->as_int64(), 1);  // on a worker track
    EXPECT_GE(ev.find("dur")->as_double(), 0.0);
  }
}

TEST(GridDoc, TimelineWithoutPoolIsJustTheHeader) {
  const GridOutcome grid = run_grid(seed_scenario(), {});
  const Json trace = Json::parse(grid.timeline_json());
  EXPECT_EQ(trace.find("traceEvents")->items().size(), 2u);
  EXPECT_EQ(count_events(trace, "X"), 0u);
}

runner::RunScrape synthetic_scrape(double counter, std::uint64_t events,
                                   double slow_mean) {
  runner::RunScrape s;
  s.instruments["pfc.pause_total"] = counter;
  s.events_executed = events;
  s.slowdown.count = 10;
  s.slowdown.mean = slow_mean;
  s.slowdown.p95 = slow_mean * 2;
  s.slowdown.p999 = slow_mean * 3;
  s.flows_finished = 10;
  s.flows_started = 12;
  return s;
}

TEST(GridDoc, AggregatesMinMeanP95MaxOverCells) {
  const Scenario sc = seed_scenario();
  std::vector<CellResult> results;
  for (std::size_t i = 0; i < 3; ++i) {
    CellResult r;
    r.index = i;
    r.seed = 21 + i;
    r.value = 10.0 * static_cast<double>(i + 1);
    r.scrape = synthetic_scrape(static_cast<double>(i + 1), 100 * (i + 1),
                                1.0 + 0.5 * static_cast<double>(i));
    results.push_back(r);
  }
  const GridOutcome grid(sc, expand_grid(sc), std::move(results));
  const auto aggs = grid.aggregates();
  // One row per instrument plus the six reserved quantities.
  ASSERT_EQ(aggs.size(), 7u);
  const auto& counter = aggs.at("pfc.pause_total");
  EXPECT_DOUBLE_EQ(counter.min, 1.0);
  EXPECT_DOUBLE_EQ(counter.mean, 2.0);
  EXPECT_DOUBLE_EQ(counter.max, 3.0);
  EXPECT_EQ(counter.n, 3u);
  EXPECT_GE(counter.p95, counter.mean);
  EXPECT_LE(counter.p95, counter.max);
  EXPECT_DOUBLE_EQ(aggs.at("metric_value").mean, 20.0);
  EXPECT_DOUBLE_EQ(aggs.at("events_executed").max, 300.0);
  EXPECT_DOUBLE_EQ(aggs.at("fct.slowdown_mean").max, 2.0);
  EXPECT_DOUBLE_EQ(aggs.at("fct.slowdown_p999").min, 3.0);
  EXPECT_DOUBLE_EQ(aggs.at("fct.finished").min, 10.0);
}

TEST(GridDoc, WritesReportFailure) {
  const GridOutcome grid = run_grid(seed_scenario(), {});
  EXPECT_FALSE(grid.write("/nonexistent/dir/x.grid.json"));
  EXPECT_FALSE(grid.write_timeline("/nonexistent/dir/x.grid.timeline.json"));
}

TEST(ScenarioPack, EveryCommittedFileParsesInBothForms) {
  // Enumerates the directory, so a file added to scenarios/ is parsed and
  // grid-expanded here, full and tiny, by the parser every front door
  // uses. A sweep is not required: paraleon_run runs sweep-less files.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PARALEON_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u) << "the fig8/fig13/multitenant pack is gone";
  for (const auto& file : files) {
    for (const bool tiny : {false, true}) {
      SCOPED_TRACE(file.string() + (tiny ? " (tiny)" : " (full)"));
      const Scenario sc = load_scenario_file(file.string(), tiny);
      EXPECT_FALSE(sc.name.empty());
      // Expansion re-validates every cell; a drifting sweep key in a
      // committed file fails here, not at bench runtime.
      EXPECT_FALSE(expand_grid(sc).empty());
    }
  }
}

}  // namespace
}  // namespace paraleon::scenario
