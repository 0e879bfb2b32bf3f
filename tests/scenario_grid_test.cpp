// GridRunner: sweep expansion (row-major, first axis slowest), the
// jobs-invariant deterministic half of paraleon.grid.v1, and the
// committed scenario pack staying parseable in both full and tiny form.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"

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
