// Parity pins: the committed fig8/fig13/fig14 scenario files must keep
// running the experiments the original hand-wired benches ran, bit for
// bit. The fig8/fig13 digests below are those setups' --tiny run_digests,
// recorded before the hand-wired builders were deleted. fig14's hand-wired
// setup had no tiny form: its three full-scale scheme digests matched the
// scenario's before that setup was deleted, and the pin is the tiny
// overlay's digest recorded then. The scenario files are now the only
// definition of these experiments, and a drifting file fails here.
//
// run_digest hashes simulator, host and switch counters only; the metric
// window (`metric.from_ms`/`to_ms`) is applied afterwards. So each pin also
// carries the cell's metric value — the figure's table value — read at the
// same commit as the digest, as an exact hex-float literal.
//
// Runs use the --tiny shapes (16-host fig8 and fig14, 60 ms fig13) to stay
// in unit-test budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif

namespace paraleon::scenario {
namespace {

struct Pin {
  std::uint64_t digest;
  double value;
};

constexpr Pin kFig8Paraleon = {0xd80b5525d90defafull,
                               0x1.f69ebed32139p+3};  // 15.7068781...
constexpr Pin kFig8Default = {0x604992f50220dfd2ull,
                              0x1.9dcd5fe28f555p+2};  // 6.46566006...
// Mean throughput over the steady tail [20 ms, 60 ms) of the tiny run.
constexpr Pin kFig13ParaleonAt8 = {0xcf21d41b2e7412b1ull,
                                   0x1.54d1e96c3fc43p+5};  // 42.602496
constexpr Pin kFig14Paraleon = {0xf90b2277ce79e37dull,
                                0x1.7f6724b5290f2p+3};  // 11.9813407...

std::string pack_path(const std::string& file) {
  return std::string(PARALEON_SCENARIO_DIR) + "/" + file;
}

/// Finds the unique expanded cell matching `pred`; fails the test when
/// the pack no longer contains it.
template <typename Pred>
const GridCell* find_cell(const std::vector<GridCell>& cells, Pred pred) {
  for (const GridCell& cell : cells) {
    if (pred(cell.scenario)) return &cell;
  }
  ADD_FAILURE() << "no matching cell in the expanded grid";
  return nullptr;
}

TEST(Fig8Parity, ScenarioCellsMatchTheLegacySetup) {
  const Scenario sc =
      load_scenario_file(pack_path("fig8_influx.json"), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);

  const std::pair<const char*, Pin> pins[] = {
      {"paraleon", kFig8Paraleon}, {"default", kFig8Default}};
  for (const auto& [scheme, pin] : pins) {
    const GridCell* cell = find_cell(cells, [&](const Scenario& s) {
      return s.scheme.name == scheme;
    });
    ASSERT_NE(cell, nullptr);
    const CellResult result = run_cell(*cell, {});
    EXPECT_EQ(result.digest, pin.digest)
        << scheme << ": scenarios/fig8_influx.json drifted from the "
        << "pinned fig8 setup";
    EXPECT_DOUBLE_EQ(result.value, pin.value)
        << scheme << ": the fig8 table value moved";
  }
}

TEST(Fig13Parity, ParaleonAtEightWorkersMatchesTheLegacySetup) {
  const Scenario sc =
      load_scenario_file(pack_path("fig13_alltoall.json"), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);

  const GridCell* cell = find_cell(cells, [](const Scenario& s) {
    return s.scheme.name == "paraleon" && s.workload.front().workers == 8;
  });
  ASSERT_NE(cell, nullptr);
  // The table value is the steady-tail mean: the window starts at 20 ms.
  EXPECT_EQ(cell->scenario.metric.name, "tput_mean_gbps");
  EXPECT_EQ(cell->scenario.metric.from_ms, 20.0);
  const CellResult result = run_cell(*cell, {});
  EXPECT_EQ(result.digest, kFig13ParaleonAt8.digest)
      << "scenarios/fig13_alltoall.json drifted from the pinned fig13 setup";
  EXPECT_DOUBLE_EQ(result.value, kFig13ParaleonAt8.value)
      << "the fig13 table value (metric window or tiny overlay) moved";
}

TEST(Fig14Parity, ParaleonCellMatchesThePinnedSetup) {
  const Scenario sc =
      load_scenario_file(pack_path("fig14_rpc_influx.json"), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);

  const GridCell* cell = find_cell(
      cells, [](const Scenario& s) { return s.scheme.name == "paraleon"; });
  ASSERT_NE(cell, nullptr);
  const CellResult result = run_cell(*cell, {});
  EXPECT_EQ(result.digest, kFig14Paraleon.digest)
      << "scenarios/fig14_rpc_influx.json drifted from the pinned fig14 "
      << "setup";
  EXPECT_DOUBLE_EQ(result.value, kFig14Paraleon.value)
      << "the fig14 cell value moved";
}

TEST(MixedMultitenant, ExpandsToTheThreeAxisCrossProduct) {
  const Scenario sc = load_scenario_file(
      pack_path("mixed_multitenant.json"), /*tiny=*/true);
  ASSERT_EQ(sc.sweep.size(), 3u);
  const std::vector<GridCell> cells = expand_grid(sc);
  std::size_t product = 1;
  for (const auto& axis : sc.sweep) product *= axis.values.size();
  EXPECT_EQ(cells.size(), product);
  EXPECT_EQ(cells.size(), 8u);
  // All four tenant components survive every cell's strict reparse.
  for (const GridCell& cell : cells) {
    EXPECT_EQ(cell.scenario.workload.size(), 4u);
  }
}

}  // namespace
}  // namespace paraleon::scenario
