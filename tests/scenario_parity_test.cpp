// Parity pins: the committed scenario files must keep running the
// experiments the original hand-wired benches ran, bit for bit. The
// fig8/fig13 digests below are those setups' --tiny run_digests, recorded
// before the hand-wired builders were deleted. fig14's hand-wired setup had
// no tiny form: its three full-scale scheme digests matched the scenario's
// before that setup was deleted, and the pin is the tiny overlay's digest
// recorded then. The fig6, fig7, fig10, fig11, fig12 and table2 files were
// checked the same way — at least one full-scale cell per file gave the
// hand-built setup's run_digest before that setup was deleted — and each
// pin here is one of the file's tiny cells, recorded then. fig5's file
// matched its hand-built setup in all 15 full-scale cells (its three
// cells of the scaled default have since become one), and fig6's
// object-valued kmax axis matched the bench's old kmin hook in all 16
// cells at both scales; the fig5 pin is a full-scale cell. The table4
// and two fig9 pretraining files are sweep-less: each gave its hand-built
// run's digest at full scale, and its pin is the tiny run, recorded from
// the hand-built setup built with the tiny overlay's overrides before that
// setup was deleted. The scenario files are now the only definition of
// these experiments, and a drifting file fails here.
//
// run_digest hashes simulator, host and switch counters only; the metric
// windows (`metric` and the named `metrics`) and every table value a bench
// harvests in its on_cell hook are read afterwards. So each pin also
// carries the cell's table value, read at the same commit as the digest
// the way the bench reads it, as an exact hex-float literal. The influx
// files' six phase metrics were recorded from the benches' former
// hand-coded phase windows, before those moved into the files. Where a
// figure's bench is gone (fig10, fig11, fig14's RPC tail, table2), the
// hand-written harvest stays, and the same pin must also equal the
// metric the file names, so the file reads what the bench read.
//
// Runs use the --tiny shapes (16-host fig8, fig14 and most of the sweep
// files, 60 ms fig13 and fig7 LLM, 80 ms fig7 FB_Hadoop) to stay in
// unit-test budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"
#include "stats/percentile.hpp"
#include "workload/alltoall_workload.hpp"

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
// The influx files' named phase metrics on their tiny runs: before =
// [5, 20) ms, influx = [22 ms, burst stop), after = [40 ms, end).
using PhasePins = std::map<std::string, double>;
const PhasePins kFig8ParaleonPhases = {
    {"before_tput_gbps", 0x1.9fbe2f33829ccp+3},  // 12.9919659
    {"before_rtt_us", 0x1.6c73cb8a28da4p+8},     // 364.452325
    {"influx_tput_gbps", 0x1.0fb415da8e671p+5},  // 33.9629323
    {"influx_rtt_us", 0x1.e37299441a6bep+10},    // 1933.7906
    {"after_tput_gbps", 0x1.6b36064c4a5b7p+2},   // 5.6751724
    {"after_rtt_us", 0x1.77071efe01d8ep+10},     // 1500.11127
};
const PhasePins kFig8DefaultPhases = {
    {"before_tput_gbps", 0x1.bddac18215ef5p+0},  // 1.7416192
    {"before_rtt_us", 0x1.3158749ac26cbp+5},     // 38.1681912
    {"influx_tput_gbps", 0x1.7fd8cf398e971p+3},  // 11.995216
    {"influx_rtt_us", 0x1.1ddea5fcce60ep+6},     // 71.4674301
    {"after_tput_gbps", 0x1.91d59fda257aep+2},   // 6.2786636
    {"after_rtt_us", 0x1.686b0d7473d8fp+5},      // 45.0522718
};
const PhasePins kFig14ParaleonPhases = {
    {"before_tput_gbps", 0x1.4b599aa60913bp+2},  // 5.177344
    {"before_rtt_us", 0x1.18c946595b511p+6},     // 70.1965574
    {"influx_tput_gbps", 0x1.61e0ba78c59cep+4},  // 22.1173653
    {"influx_rtt_us", 0x1.2c023d25dd7f3p+8},     // 300.008746
    {"after_tput_gbps", 0x1.4f7281fd9ba1dp+1},   // 2.620682
    {"after_rtt_us", 0x1.73fe6bc07d6f2p+5},      // 46.499229
};
// Mean throughput over the steady tail [20 ms, 60 ms) of the tiny run.
constexpr Pin kFig13ParaleonAt8 = {0xcf21d41b2e7412b1ull,
                                   0x1.54d1e96c3fc43p+5};  // 42.602496
constexpr Pin kFig14Paraleon = {0xf90b2277ce79e37dull,
                                0x1.7f6724b5290f2p+3};  // 11.9813407...
// fig14's RPC tail: the p99 slowdown of the flows under 128 KB (every
// SolarRPC flow), recorded with the former bench's on_cell formula.
constexpr double kFig14ParaleonRpcP99 = 0x1.77d2ebadd09dep+6;  // 93.955977
// fig5 rpg_time_reset panel, 30 us (full scale: the file has no tiny
// form): digest plus the bench's throughput and RTT columns.
constexpr std::uint64_t kFig5Rpg30Digest = 0x6a80f14d9412a6d6ull;
constexpr double kFig5Rpg30Tput = 0x1.03cce9274b735p+4;  // 16.2375...
constexpr double kFig5Rpg30Rtt = 0x1.1185014e9f015p+7;   // 136.760...
// fig6 throughput table, rpg_time_reset 30 us x kmax 20 KB (kmin 5 KB).
constexpr Pin kFig6Corner = {0xd9886b2628300705ull,
                             0x1.f7e4a88ba4e45p+3};  // 15.7466624
// fig7 (a): PARALEON's mean slowdown of the <120KB band.
constexpr Pin kFig7HadoopParaleon = {0x6b97c178a44511c7ull,
                                     0x1.7f0e170b06337p+0};  // 1.49630875
// fig7 (c): PARALEON's p99 FCT (ms) at 8 workers.
constexpr Pin kFig7LlmParaleonAt8 = {0x31e110c4cd7540d3ull,
                                     0x1.395520ae4b577p+3};  // 9.79164156
// fig10 (a): PARALEON's FSD accuracy at load 0.3.
constexpr Pin kFig10AccuracyParaleon = {0x1029af39a98dd51full,
                                        0x1.f8b119528a3cfp-1};  // 0.98572616
// fig10 (b): PARALEON's mice (<1 MB) mean slowdown.
constexpr Pin kFig10FctParaleon = {0x92b7217897009b67ull,
                                   0x1.874595fbd97fdp+1};  // 3.05681109
// fig11: PARALEON's FSD accuracy at a 1 ms monitor interval.
constexpr Pin kFig11ParaleonAt1ms = {0x219f34ee77a03271ull,
                                     0x1.fe133f84cfe14p-1};  // 0.99624060
// fig12: PARALEON's mean utility over the whole (tiny) run.
constexpr Pin kFig12HadoopParaleon = {0xea3bebf94c19865eull,
                                      0x1.1f417a4a0dd51p-1};  // 0.56104643
constexpr Pin kFig12LlmParaleon = {0x87085587646b54baull,
                                   0x1.06442fd90587dp-1};  // 0.51223897
// table2: Expert's mean algbw (GB/s) at 256 KB per pair.
constexpr Pin kTable2ExpertAt256 = {0xc458e3497df3abf3ull,
                                    0x1.239a56ee2a786p-4};  // 0.07119211
// table4: the RNIC->controller bytes of the tiny run.
constexpr Pin kTable4Tiny = {0x1461b3a78dda103dull, 0x1.5cp+12};  // 5568 B
// fig9 pretraining: the learned pmax of each tiny run.
constexpr Pin kFig9PretrainAlltoall = {0xf8897f3985e19bbeull,
                                       0x1.7358769ae7c85p-2};  // 0.36...
constexpr Pin kFig9PretrainFbHadoop = {0x61f2f3a80c2d161cull,
                                       0x1.7df032258acf2p-2};  // 0.37...

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

using Harvest =
    std::function<double(runner::Experiment&, const FlowScheduler&)>;

/// Runs the tiny cell of `file` that `pred` picks and checks its digest
/// and the table value `harvest` reads from the finished run (through an
/// on_cell hook, as the bench did) against `pin`. Returns the cell's
/// result, so a caller can check that the file's own metric reads the
/// same value.
template <typename Pred>
CellResult expect_pinned(const std::string& file, Pred pred,
                         const Harvest& harvest, const Pin& pin) {
  SCOPED_TRACE(file);
  const Scenario sc = load_scenario_file(pack_path(file), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);
  const GridCell* cell = find_cell(cells, pred);
  if (cell == nullptr) return {};
  double value = 0.0;
  GridOptions opts;
  opts.on_cell = [&](const GridCell&, runner::Experiment& exp,
                     const FlowScheduler& flows) {
    value = harvest(exp, flows);
  };
  const CellResult result = run_cell(*cell, opts);
  EXPECT_EQ(result.digest, pin.digest)
      << file << " drifted from the pinned hand-built setup";
  EXPECT_DOUBLE_EQ(value, pin.value) << "the table value moved";
  return result;
}

bool is_paraleon(const Scenario& s) { return s.scheme.name == "paraleon"; }

/// The cell's named metrics are exactly `pins`.
void expect_phases(const CellResult& result, const PhasePins& pins) {
  ASSERT_EQ(result.metrics.size(), pins.size());
  for (const auto& [name, value] : pins) {
    SCOPED_TRACE(name);
    ASSERT_EQ(result.metrics.count(name), 1u);
    EXPECT_DOUBLE_EQ(result.metrics.at(name), value)
        << "the phase window moved";
  }
}

const workload::AlltoallWorkload& collective(const FlowScheduler& flows) {
  return dynamic_cast<const workload::AlltoallWorkload&>(
      *flows.find("collective"));
}

TEST(Fig8Parity, ScenarioCellsMatchTheLegacySetup) {
  const Scenario sc =
      load_scenario_file(pack_path("fig8_influx.json"), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);

  const struct {
    const char* scheme;
    Pin pin;
    const PhasePins& phases;
  } pins[] = {{"paraleon", kFig8Paraleon, kFig8ParaleonPhases},
              {"default", kFig8Default, kFig8DefaultPhases}};
  for (const auto& [scheme, pin, phases] : pins) {
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
    SCOPED_TRACE(scheme);
    expect_phases(result, phases);
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
  double rpc_p99 = 0.0;
  GridOptions opts;
  opts.on_cell = [&](const GridCell&, runner::Experiment& exp,
                     const FlowScheduler&) {
    rpc_p99 = stats::quantile(exp.fct().slowdowns(0, 128 << 10), 0.99);
  };
  const CellResult result = run_cell(*cell, opts);
  EXPECT_EQ(result.digest, kFig14Paraleon.digest)
      << "scenarios/fig14_rpc_influx.json drifted from the pinned fig14 "
      << "setup";
  EXPECT_DOUBLE_EQ(result.value, kFig14Paraleon.value)
      << "the fig14 cell value moved";
  EXPECT_DOUBLE_EQ(rpc_p99, kFig14ParaleonRpcP99) << "the RPC tail moved";
  PhasePins metrics = kFig14ParaleonPhases;
  metrics["rpc_p99_slowdown"] = kFig14ParaleonRpcP99;
  expect_phases(result, metrics);
}

TEST(Fig5Parity, RpgTimeResetCellMatchesThePinnedSetup) {
  const Scenario sc =
      load_scenario_file(pack_path("fig5_single_param.json"), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 13u);
  const GridCell* cell = find_cell(cells, [](const Scenario& s) {
    return to_experiment_config(s).custom_params.rpg_time_reset ==
           microseconds(30);
  });
  ASSERT_NE(cell, nullptr);
  const CellResult result = run_cell(*cell, {});
  EXPECT_EQ(result.digest, kFig5Rpg30Digest)
      << "scenarios/fig5_single_param.json drifted from the pinned setup";
  EXPECT_DOUBLE_EQ(result.value, kFig5Rpg30Tput)
      << "the throughput column moved";
  ASSERT_EQ(result.metrics.count("rtt_us"), 1u);
  EXPECT_DOUBLE_EQ(result.metrics.at("rtt_us"), kFig5Rpg30Rtt)
      << "the RTT column moved";
}

TEST(Fig6Parity, TopLeftCellMatchesThePinnedSetup) {
  // Each kmax axis value sets kmin to a quarter of kmax: no hook.
  expect_pinned(
      "fig6_inter_param.json",
      [](const Scenario& s) {
        const runner::ExperimentConfig cfg = to_experiment_config(s);
        return cfg.custom_params.rpg_time_reset == microseconds(30) &&
               cfg.custom_params.kmax_bytes == 20 << 10;
      },
      [](runner::Experiment& exp, const FlowScheduler&) {
        return exp.throughput_series().mean_in(milliseconds(5),
                                               exp.config().duration);
      },
      kFig6Corner);
}

TEST(Fig7Parity, HadoopAndLlmCellsMatchThePinnedSetup) {
  expect_pinned(
      "fig7_fb_hadoop.json", is_paraleon,
      [](runner::Experiment& exp, const FlowScheduler&) {
        return stats::mean(exp.fct().slowdowns(0, 120 << 10));
      },
      kFig7HadoopParaleon);
  expect_pinned(
      "fig7_llm_alltoall.json",
      [](const Scenario& s) {
        return is_paraleon(s) && s.workload.front().workers == 8;
      },
      [](runner::Experiment& exp, const FlowScheduler& flows) {
        EXPECT_GT(collective(flows).rounds_completed(), 0);
        auto fcts = exp.fct().fct_seconds(0, 1ll << 40);
        for (auto& f : fcts) f *= 1e3;  // ms
        return stats::quantile(fcts, 0.99);
      },
      kFig7LlmParaleonAt8);
}

TEST(Fig10Parity, AccuracyAndFctCellsMatchThePinnedSetup) {
  // Each file's named metric reads what the former bench harvested.
  const CellResult accuracy = expect_pinned(
      "fig10_accuracy.json",
      [](const Scenario& s) {
        return is_paraleon(s) && s.workload.front().load == 0.3;
      },
      [](runner::Experiment& exp, const FlowScheduler&) {
        return exp.mean_fsd_accuracy();
      },
      kFig10AccuracyParaleon);
  ASSERT_EQ(accuracy.metrics.count("fsd_accuracy"), 1u);
  EXPECT_DOUBLE_EQ(accuracy.metrics.at("fsd_accuracy"),
                   kFig10AccuracyParaleon.value);
  const CellResult fct = expect_pinned(
      "fig10_fct.json", is_paraleon,
      [](runner::Experiment& exp, const FlowScheduler&) {
        return stats::mean(exp.fct().slowdowns(0, 1 << 20));
      },
      kFig10FctParaleon);
  ASSERT_EQ(fct.metrics.count("mice_slowdown"), 1u);
  EXPECT_DOUBLE_EQ(fct.metrics.at("mice_slowdown"), kFig10FctParaleon.value);
}

TEST(Fig11Parity, ParaleonAtOneMillisecondMatchesThePinnedSetup) {
  const CellResult result = expect_pinned(
      "fig11_interval.json",
      [](const Scenario& s) {
        return is_paraleon(s) &&
               to_experiment_config(s).controller.mi == milliseconds(1);
      },
      [](runner::Experiment& exp, const FlowScheduler&) {
        return exp.mean_fsd_accuracy();
      },
      kFig11ParaleonAt1ms);
  ASSERT_EQ(result.metrics.count("fsd_accuracy"), 1u);
  EXPECT_DOUBLE_EQ(result.metrics.at("fsd_accuracy"),
                   kFig11ParaleonAt1ms.value);
}

TEST(Fig12Parity, UtilityTracesMatchThePinnedSetup) {
  const Harvest mean_utility = [](runner::Experiment& exp,
                                  const FlowScheduler&) {
    return exp.controller()->utility_series().mean_in(0,
                                                      exp.config().duration);
  };
  expect_pinned("fig12_sa_fb_hadoop.json", is_paraleon, mean_utility,
                kFig12HadoopParaleon);
  expect_pinned("fig12_sa_llm.json", is_paraleon, mean_utility,
                kFig12LlmParaleon);
}

TEST(Table2Parity, ExpertAt256KbMatchesThePinnedSetup) {
  const CellResult result = expect_pinned(
      "table2_alltoall_presets.json",
      [](const Scenario& s) {
        return s.scheme.name == "expert" && s.workload.front().flow_kb == 256;
      },
      [](runner::Experiment&, const FlowScheduler& flows) {
        const workload::AlltoallWorkload& a2a = collective(flows);
        EXPECT_GT(a2a.rounds_completed(), 0);
        double sum = 0.0;
        for (int r = 0; r < a2a.rounds_completed(); ++r) {
          sum += a2a.round_algbw_gbs(r);
        }
        return sum / a2a.rounds_completed();
      },
      kTable2ExpertAt256);
  // The file's headline is the same mean algbw.
  EXPECT_DOUBLE_EQ(result.value, kTable2ExpertAt256.value);
}

TEST(Table4Parity, TinyRunMatchesThePinnedSetup) {
  expect_pinned(
      "table4_overheads.json", is_paraleon,
      [](runner::Experiment& exp, const FlowScheduler&) {
        return static_cast<double>(
            exp.controller()->overheads().rnic_to_controller_bytes);
      },
      kTable4Tiny);
}

TEST(Fig9Parity, PretrainingRunsMatchThePinnedSetup) {
  const Harvest learned_pmax = [](runner::Experiment& exp,
                                  const FlowScheduler&) {
    return exp.learned_params().pmax;
  };
  expect_pinned("fig9_pretrain_alltoall.json", is_paraleon, learned_pmax,
                kFig9PretrainAlltoall);
  expect_pinned("fig9_pretrain_fb_hadoop.json", is_paraleon, learned_pmax,
                kFig9PretrainFbHadoop);
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
