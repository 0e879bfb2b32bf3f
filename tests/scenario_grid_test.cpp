// GridRunner: sweep expansion (row-major, first axis slowest; object
// values as dotted patches under their axis key), the
// jobs-invariant deterministic half of paraleon.grid.v1, a seed sweep as a
// `seed` axis, the on_cell hook's view of the installed workload, the wall
// subtree and pool timeline (both checked against their schema below, on
// many-cell grids and on the one-cell grid of a sweep-less file), and the
// committed scenario pack staying parseable in both full and tiny form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "doc_checks.hpp"
#include "obs/fleet.hpp"
#include "scenario/grid_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "workload/alltoall_workload.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif
#ifndef PARALEON_FIXTURE_DIR
#define PARALEON_FIXTURE_DIR "tests/fixtures"
#endif

namespace paraleon::scenario {
namespace {

using doc_checks::at;
using doc_checks::is_count;

/// The "wall" subtree's pool facts: per-worker job counts that sum to the
/// pool's, and each worker's busy+idle equal to the pool's wall window
/// (to the rounding of the seconds the document prints).
void check_grid_pool(const Json& wall) {
  const Json& pool = at(wall, "pool");
  const std::int64_t workers = at(pool, "workers").as_int64();
  const std::int64_t jobs = at(pool, "jobs_completed").as_int64();
  EXPECT_TRUE(is_count(at(pool, "workers")));
  EXPECT_TRUE(is_count(at(pool, "jobs_completed")));
  const double pool_wall = at(pool, "pool_wall_seconds").as_double();
  EXPECT_GE(pool_wall, 0.0);
  EXPECT_GE(at(pool, "busy_seconds").as_double(), 0.0);
  EXPECT_GE(at(pool, "idle_seconds").as_double(), 0.0);
  EXPECT_NEAR(at(pool, "busy_seconds").as_double() +
                  at(pool, "idle_seconds").as_double(),
              static_cast<double>(workers) * pool_wall, 1e-6);

  const auto& rows = at(wall, "workers").items();
  EXPECT_EQ(static_cast<std::int64_t>(rows.size()), workers);
  std::int64_t row_jobs = 0;
  for (const Json& w : rows) {
    row_jobs += at(w, "jobs").as_int64();
    EXPECT_GE(at(w, "busy_seconds").as_double(), 0.0);
    EXPECT_GE(at(w, "idle_seconds").as_double(), 0.0);
    EXPECT_NEAR(at(w, "busy_seconds").as_double() +
                    at(w, "idle_seconds").as_double(),
                pool_wall, 1e-6);
  }
  EXPECT_EQ(row_jobs, jobs) << "per-worker job counts";
}

/// The cell-row field that the reserved aggregate `name` of
/// GridOutcome::aggregates() summarizes.
double reserved_row(const Json& cell, const std::string& name) {
  const Json& fct = at(cell, "fct");
  if (name == "metric_value") return at(cell, "value").as_double();
  if (name == "events_executed") {
    return at(cell, "events_executed").as_double();
  }
  if (name == "fct.finished") return at(fct, "finished").as_double();
  // fct.slowdown_<quantile>
  return at(at(fct, "slowdown"), name.substr(std::strlen("fct.slowdown_")))
      .as_double();
}

/// A paraleon.grid.v1 document: one cell per point of the axes' cross
/// product, in row-major order with the first axis slowest (so each
/// cell's coords follow from its index, and no two cells share them);
/// 16-hex-digit digests, per-cell named metrics and FCT summaries;
/// aggregates that summarize the cell rows; and nondeterministic facts
/// under "wall" only.
void check_grid(const Json& doc) {
  EXPECT_EQ(at(doc, "schema").as_string(), "paraleon.grid.v1");
  EXPECT_FALSE(at(doc, "scenario").as_string().empty());
  EXPECT_FALSE(at(doc, "metric").as_string().empty());
  EXPECT_TRUE(is_count(at(doc, "seed")));
  std::set<std::string> top = doc_checks::keys_of(doc);
  top.erase("wall");
  EXPECT_EQ(top, (std::set<std::string>{"schema", "scenario", "seed",
                                        "metric", "axes", "cells",
                                        "aggregates"}));

  const auto& axes = at(doc, "axes").items();
  std::size_t expected = 1;
  for (const Json& axis : axes) {
    EXPECT_EQ(doc_checks::keys_of(axis),
              (std::set<std::string>{"key", "values"}));
    EXPECT_FALSE(at(axis, "key").as_string().empty());
    EXPECT_FALSE(at(axis, "values").items().empty());
    expected *= at(axis, "values").items().size();
  }
  const auto& cells = at(doc, "cells").items();
  ASSERT_EQ(cells.size(), expected) << "cells vs the axes' cross product";

  std::set<std::string> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const Json& cell = cells[i];
    EXPECT_EQ(doc_checks::keys_of(cell),
              (std::set<std::string>{"index", "coords", "seed", "digest",
                                     "value", "metrics", "events_executed",
                                     "fct"}));
    EXPECT_EQ(at(cell, "index").as_uint64(), i);
    EXPECT_TRUE(is_count(at(cell, "seed")));
    const std::string& digest = at(cell, "digest").as_string();
    EXPECT_EQ(digest.size(), 16u) << digest;
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << digest;
    EXPECT_TRUE(at(cell, "value").is_number());
    // Every cell names the same metrics: the file's `metrics` section.
    const Json& metrics = at(cell, "metrics");
    EXPECT_EQ(doc_checks::keys_of(metrics),
              doc_checks::keys_of(at(cells[0], "metrics")));
    for (const auto& [name, value] : metrics.members()) {
      EXPECT_EQ(name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                        "0123456789_"),
                std::string::npos)
          << name;
      EXPECT_TRUE(value.is_number()) << name;
    }
    EXPECT_TRUE(is_count(at(cell, "events_executed")));
    EXPECT_GT(at(cell, "events_executed").as_uint64(), 0u);

    const auto& coords = at(cell, "coords").members();
    ASSERT_EQ(coords.size(), axes.size());
    std::size_t stride = expected;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const auto& values = at(axes[a], "values").items();
      stride /= values.size();
      EXPECT_EQ(coords[a].first, at(axes[a], "key").as_string());
      EXPECT_EQ(coords[a].second.dump(),
                values[(i / stride) % values.size()].dump())
          << "row-major order";
    }
    EXPECT_TRUE(seen.insert(at(cell, "coords").dump()).second)
        << "duplicate coords";

    const Json& fct = at(cell, "fct");
    const std::uint64_t finished = at(fct, "finished").as_uint64();
    EXPECT_LE(finished, at(fct, "started").as_uint64());
    doc_checks::check_slowdown_stats(at(fct, "slowdown"),
                                     /*with_count=*/false, finished > 0);
  }

  const Json& aggregates = at(doc, "aggregates");
  for (const auto& [name, agg] : aggregates.members()) {
    SCOPED_TRACE("aggregate " + name);
    EXPECT_EQ(doc_checks::keys_of(agg),
              (std::set<std::string>{"min", "mean", "p95", "max", "n"}));
    // An instrument covers only the cells whose scheme registered it.
    const std::uint64_t n = at(agg, "n").as_uint64();
    EXPECT_TRUE(n >= 1 && n <= cells.size()) << n;
    const double min = at(agg, "min").as_double();
    const double max = at(agg, "max").as_double();
    EXPECT_LE(min, at(agg, "mean").as_double());
    EXPECT_LE(at(agg, "mean").as_double(), max);
    EXPECT_LE(min, at(agg, "p95").as_double());
    EXPECT_LE(at(agg, "p95").as_double(), max);
  }
  for (const std::string name :
       {"metric_value", "events_executed", "fct.finished",
        "fct.slowdown_mean", "fct.slowdown_p95", "fct.slowdown_p999"}) {
    SCOPED_TRACE("reserved aggregate " + name);
    const Json& agg = at(aggregates, name);
    EXPECT_EQ(at(agg, "n").as_uint64(), cells.size());
    std::vector<double> values;
    for (const Json& cell : cells) values.push_back(reserved_row(cell, name));
    const double mean =
        std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
    EXPECT_DOUBLE_EQ(at(agg, "min").as_double(),
                     *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(at(agg, "max").as_double(),
                     *std::max_element(values.begin(), values.end()));
    EXPECT_NEAR(at(agg, "mean").as_double(), mean,
                1e-6 * std::max(1.0, std::fabs(mean)));
  }

  if (const Json* wall = doc.find("wall")) {
    EXPECT_TRUE(is_count(at(*wall, "jobs")));
    EXPECT_TRUE(is_count(at(*wall, "hardware_workers")));
    EXPECT_GE(at(*wall, "wall_seconds").as_double(), 0.0);
    std::set<std::string> keys{"jobs", "hardware_workers", "wall_seconds"};
    if (wall->has("pool")) {
      check_grid_pool(*wall);
      keys.insert({"pool", "workers"});
    }
    EXPECT_EQ(doc_checks::keys_of(*wall), keys);
  }
}

/// A grid's pool timeline against its grid document: metadata-named
/// tracks (the submit track plus one per worker), one 'X' span per
/// executed job on a worker track, and an 's' on the submit track for
/// every 'f' flow arrow.
void check_grid_timeline(const Json& timeline, const Json& grid) {
  const auto& events = at(timeline, "traceEvents").items();
  EXPECT_FALSE(events.empty());
  std::map<std::int64_t, std::string> tracks;
  std::set<std::int64_t> span_tids;
  std::set<std::uint64_t> flow_starts;
  std::set<std::uint64_t> flow_ends;
  std::size_t spans = 0;
  for (const Json& ev : events) {
    at(ev, "name").as_string();
    at(ev, "pid").as_int64();
    const std::int64_t tid = at(ev, "tid").as_int64();
    const std::string& ph = at(ev, "ph").as_string();
    if (ph == "M") {
      const std::string& name = at(ev, "name").as_string();
      EXPECT_TRUE(name == "process_name" || name == "thread_name") << name;
      if (name == "thread_name") {
        tracks[tid] = at(at(ev, "args"), "name").as_string();
      }
      continue;
    }
    EXPECT_EQ(at(ev, "cat").as_string(), "grid");
    EXPECT_GE(at(ev, "ts").as_double(), 0.0);
    if (ph == "X") {
      EXPECT_GE(at(ev, "dur").as_double(), 0.0);
      EXPECT_GE(tid, 1) << "a job span off the worker tracks";
      span_tids.insert(tid);
      ++spans;
    } else if (ph == "s") {
      EXPECT_EQ(tid, 0) << "a flow start off the submit track";
      flow_starts.insert(at(ev, "id").as_uint64());
    } else if (ph == "f") {
      EXPECT_EQ(at(ev, "bp").as_string(), "e");
      flow_ends.insert(at(ev, "id").as_uint64());
    } else {
      ADD_FAILURE() << "unknown timeline phase " << ph;
    }
  }
  for (const std::uint64_t id : flow_ends) {
    EXPECT_TRUE(flow_starts.count(id)) << "flow " << id << " has no start";
  }
  EXPECT_TRUE(tracks.count(0) && tracks.at(0) == "submit");
  for (const std::int64_t tid : span_tids) {
    EXPECT_TRUE(tracks.count(tid)) << "track " << tid << " has no name";
  }
  if (const Json* wall = grid.find("wall"); wall && wall->has("pool")) {
    const Json& pool = at(*wall, "pool");
    EXPECT_EQ(static_cast<std::int64_t>(tracks.size()),
              at(pool, "workers").as_int64() + 1);
    EXPECT_EQ(spans, at(pool, "jobs_completed").as_uint64());
  }
}

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

TEST(ExpandGrid, PlacementIsCheckedOnEachCellsOwnFabric) {
  // Cell 0's dumbbell has 16 hosts, cell 1's 8: only cell 1 cannot hold
  // the 10-worker alltoall, and expansion names it before any cell runs.
  const Scenario sc = parse_scenario_text(R"({
    "name": "hosts",
    "duration_ms": 2,
    "topology": {"kind": "dumbbell", "hosts_per_side": 8},
    "scheme": {"name": "default"},
    "workload": [{"name": "a2a", "kind": "alltoall", "workers": 10}],
    "sweep": {"axes": [
      {"key": "topology.hosts_per_side", "values": [8, 4]}]}})");
  try {
    expand_grid(sc);
    FAIL() << "expected a ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(std::string(e.what()),
              "hosts cell 1 (topology.hosts_per_side=4): workload.a2a: 10 "
              "workers exceed the fabric's 8 hosts");
  }
  Scenario fits = sc;
  fits.sweep[0].values.pop_back();
  EXPECT_EQ(expand_grid(fits).size(), 1u);
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
  // The 2x2 grid, and a file with named metrics (a per-cell `metrics`
  // object in the deterministic half).
  const Scenario named = load_scenario_file(
      std::string(PARALEON_FIXTURE_DIR) + "/named_metrics.json");
  ASSERT_EQ(named.metrics.size(), 4u);
  for (const Scenario& sc : {grid_scenario(), named}) {
    SCOPED_TRACE(sc.name);
    GridOptions serial;
    serial.jobs = 1;
    GridOptions fanned;
    fanned.jobs = 4;
    GridOutcome one = run_grid(sc, serial);
    GridOutcome four = run_grid(sc, fanned);
    // Wall halves differ (jobs is recorded there); the deterministic
    // halves must not, byte for byte.
    EXPECT_EQ(one.to_json(false), four.to_json(false));
    EXPECT_NE(one.to_json(true), four.to_json(true));
    check_grid(Json::parse(four.to_json(true)));
    const std::size_t cells = expand_grid(sc).size();
    ASSERT_EQ(four.results().size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(four.results()[i].index, i);  // cell order, not finish order
      EXPECT_NE(four.results()[i].digest, 0u);
      EXPECT_EQ(four.results()[i].metrics.size(), sc.metrics.size());
    }
    // Different cells are genuinely different runs.
    EXPECT_NE(four.results()[0].digest, four.results()[cells - 1].digest);
  }
}

TEST(RunGrid, RunCellReproducesTheGridCell) {
  const Scenario sc = grid_scenario();
  const std::vector<GridCell> cells = expand_grid(sc);
  const GridOutcome grid = run_grid(sc, {});
  const CellResult lone = run_cell(cells[2], {});
  EXPECT_EQ(lone.digest, grid.results()[2].digest);
  EXPECT_DOUBLE_EQ(lone.value, grid.results()[2].value);
  EXPECT_EQ(lone.metrics, grid.results()[2].metrics);
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
  // Digests are fixed-width lowercase hex strings (json numbers cannot
  // carry 64 bits losslessly); check_grid checks that and the rest.
  check_grid(det);

  const Json wall = Json::parse(grid.to_json(true));
  ASSERT_TRUE(wall.has("wall"));
  EXPECT_DOUBLE_EQ(wall.find("wall")->find("wall_seconds")->as_double(),
                   1.5);
  check_grid(wall);
}

TEST(GridDoc, AggregatesSummarizeTheCells) {
  const GridOutcome grid = run_grid(grid_scenario(), {});
  const std::map<std::string, FleetAggregate> agg =
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
  EXPECT_EQ(pool.spans().size(), 3u);  // the fan-out really ran
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

  // The spans themselves, with their queue waits, are the timeline's.
  const Json timeline = Json::parse(pooled.grid.timeline_json());
  std::size_t spans = 0;
  for (const Json& ev : at(timeline, "traceEvents").items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    ++spans;
    EXPECT_GE(at(at(ev, "args"), "queue_wait_us").as_double(), 0.0);
  }
  EXPECT_EQ(spans, 3u);
  check_grid(doc);
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
  check_grid_timeline(trace, Json::parse(pooled.grid.to_json(true)));
}

TEST(GridDoc, TwoAxisPooledGridPassesTheSchemaChecks) {
  // Two axes on two workers: row-major coords over a real cross product,
  // and pool facts from a fan-out that really ran.
  obs::PoolTelemetry pool;
  GridOptions opts;
  opts.jobs = 2;
  opts.telemetry = &pool;
  GridOutcome grid = run_grid(grid_scenario(), opts);
  grid.set_wall_seconds(pool.wall_seconds());
  const Json doc = Json::parse(grid.to_json(true), "g.grid.json");
  check_grid(doc);
  EXPECT_EQ(at(at(at(doc, "wall"), "pool"), "jobs_completed").as_int64(), 4);
  check_grid_timeline(Json::parse(grid.timeline_json(), "g.timeline.json"),
                      doc);
}

TEST(GridDoc, TimelineWithoutPoolIsJustTheHeader) {
  const GridOutcome grid = run_grid(seed_scenario(), {});
  const Json trace = Json::parse(grid.timeline_json());
  EXPECT_EQ(trace.find("traceEvents")->items().size(), 2u);
  EXPECT_EQ(count_events(trace, "X"), 0u);
}

RunScrape synthetic_scrape(double counter, std::uint64_t events,
                                   double slow_mean) {
  RunScrape s;
  s.instruments["pfc.pause_total"] = counter;
  s.events_executed = events;
  s.slowdown.count = 10;
  s.slowdown.mean = slow_mean;
  s.slowdown.p50 = slow_mean;
  s.slowdown.p95 = slow_mean * 2;
  s.slowdown.p99 = slow_mean * 2.5;
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
  // The document's reserved aggregates restate its own cell rows.
  check_grid(Json::parse(grid.to_json(false)));
}

TEST(GridDoc, SweeplessFileIsAOneCellDocument) {
  // paraleon_run runs a sweep-less file as a grid of one cell: no axes,
  // one cell with empty coords, and the same checks as any grid, its
  // timeline included (a one-item fan-out runs no pool).
  const Scenario sc = load_scenario_file(std::string(PARALEON_FIXTURE_DIR) +
                                         "/sweepless.json");
  ASSERT_TRUE(sc.sweep.empty());
  obs::PoolTelemetry pool;
  GridOptions opts;
  opts.jobs = 2;
  opts.telemetry = &pool;
  GridOutcome grid = run_grid(sc, opts);
  grid.set_wall_seconds(0.25);
  ASSERT_EQ(grid.results().size(), 1u);
  EXPECT_EQ(coords_label(grid.cells()[0]), "-");
  const Json doc = Json::parse(grid.to_json(true), "sweepless.grid.json");
  check_grid(doc);
  EXPECT_TRUE(at(doc, "axes").items().empty());
  EXPECT_TRUE(at(at(doc, "cells").items()[0], "coords").members().empty());
  const Json timeline =
      Json::parse(grid.timeline_json(), "sweepless.grid.timeline.json");
  check_grid_timeline(timeline, doc);
  EXPECT_EQ(count_events(timeline, "X"), 0u);
}

TEST(GridDoc, QuotedScenarioNameRoundTrips) {
  // The grid document and its timeline carry the scenario's name; a quote
  // and a backslash in it must come back out of the parser.
  const Scenario sc = load_scenario_file(std::string(PARALEON_FIXTURE_DIR) +
                                         "/quoted_name.json");
  ASSERT_EQ(sc.name, "quote\"back\\slash");
  const GridOutcome grid = run_grid(sc, {});
  const Json doc = Json::parse(grid.to_json(true), sc.name);
  check_grid(doc);
  EXPECT_EQ(at(doc, "scenario").as_string(), sc.name);
  const Json timeline = Json::parse(grid.timeline_json(), sc.name);
  EXPECT_EQ(at(at(timeline, "traceEvents").items()[0], "args")
                .find("name")
                ->as_string(),
            "grid:" + sc.name);
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
