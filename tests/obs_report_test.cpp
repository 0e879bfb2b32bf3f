// The per-run obs report (runner::obs_report_json) and trace file of a
// traced run, checked against their schema on the tiny fig8 grid's
// PARALEON and default cells, built in-process as paraleon_run --trace
// builds them. The instruments a report must carry follow its run: the
// sketch and controller rows exactly when the scheme built a controller.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "doc_checks.hpp"
#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif

namespace paraleon::doc_checks {
namespace {

/// Instrument families every traced run registers: MMU, PFC, ECN, the
/// DCQCN RP stages, CNP pacing and the simulator. Counters and gauges are
/// searched together: whether a subsystem surfaces as a slot or a callback
/// is its own choice.
const char* const kFabricInstruments[] = {
    R"(^switch\.\d+\.mmu\.drops$)",
    R"(^switch\.\d+\.mmu\.buffer_used$)",
    R"(^switch\.\d+\.pfc\.pauses_sent$)",
    R"(^switch\.\d+\.port\.\d+\.pfc\.pauses_received$)",
    R"(^switch\.\d+\.port\.\d+\.paused_ns$)",
    R"(^switch\.\d+\.ecn\.marks$)",
    R"(^switch\.\d+\.port\.\d+\.tx_data_bytes$)",
    R"(^host\.\d+\.rp\.cuts$)",
    R"(^host\.\d+\.rp\.hyper_increase$)",
    R"(^host\.\d+\.cnp\.sent$)",
    R"(^host\.\d+\.cnp\.suppressed$)",
    R"(^sim\.events_executed$)",
};

/// What a scheme with a controller registers on top: its ToR sketches and
/// the SA controller.
const char* const kTunerInstruments[] = {
    R"(^sketch\.tor\.\d+\.insertions$)",
    R"(^sketch\.tor\.\d+\.ostracism_votes$)",
    R"(^controller\.\d+\.sa\.episodes$)",
};

/// True when some counter or gauge of `registry` matches `pattern`.
bool registers(const Json& registry, const char* pattern) {
  const std::regex re(pattern);
  for (const char* kind : {"counters", "gauges"}) {
    for (const auto& [name, value] : at(registry, kind).members()) {
      if (std::regex_search(name, re)) return true;
    }
  }
  return false;
}

/// An obs report: its sections, the instruments its run must register,
/// trace totals that add up, and the shared registry, episode, FCT and
/// perf checks. Returns the number of SA trials.
std::size_t check_obs_report(const Json& doc, bool has_controller) {
  EXPECT_EQ(keys_of(doc),
            (std::set<std::string>{"scheme", "registry", "trace", "episodes",
                                   "fct", "perf"}));
  EXPECT_FALSE(at(doc, "scheme").as_string().empty());
  const Json& registry = at(doc, "registry");
  check_registry(registry);
  for (const char* pattern : kFabricInstruments) {
    EXPECT_TRUE(registers(registry, pattern)) << pattern;
  }
  for (const char* pattern : kTunerInstruments) {
    EXPECT_EQ(registers(registry, pattern), has_controller) << pattern;
  }
  const Json& trace = at(doc, "trace");
  const std::uint64_t total = at(trace, "total").as_uint64();
  EXPECT_EQ(total, at(trace, "recorded").as_uint64() +
                       at(trace, "dropped").as_uint64());
  EXPECT_GT(total, 0u) << "a traced run recorded no events";
  const std::size_t trials = check_episodes(at(doc, "episodes"));
  check_fct(at(doc, "fct"));
  check_perf(at(doc, "perf"));
  return trials;
}

/// The documents of one traced cell, reparsed.
struct TracedCell {
  Json report;
  Json trace;
  bool has_controller = false;
};

/// Runs the tiny fig8 cell of `scheme` with every trace category on, and
/// the PerfMonitor with `perf` (paraleon_run --trace turns on both).
TracedCell run_fig8_cell(const std::string& scheme, bool perf) {
  const scenario::Scenario sc = scenario::load_scenario_file(
      std::string(PARALEON_SCENARIO_DIR) + "/fig8_influx.json",
      /*tiny=*/true);
  TracedCell out;
  for (const scenario::GridCell& cell : scenario::expand_grid(sc)) {
    if (cell.scenario.scheme.name != scheme) continue;
    scenario::GridOptions opts;
    opts.on_config = [perf](const scenario::GridCell&,
                            runner::ExperimentConfig& cfg) {
      // A ring small enough to overflow, so the totals check sees drops.
      cfg.obs.trace = obs::TraceConfig::all_on(1u << 14);
      cfg.obs.perf_counters = perf;
    };
    opts.on_cell = [&out](const scenario::GridCell&, runner::Experiment& exp,
                          const scenario::FlowScheduler&) {
      out.report = Json::parse(runner::obs_report_json(exp).dump());
      out.trace = Json::parse(exp.simulator().obs().trace().to_json());
      out.has_controller = exp.controller() != nullptr;
    };
    scenario::run_cell(cell, opts);
    return out;
  }
  ADD_FAILURE() << "fig8_influx.json has no " << scheme << " cell";
  return out;
}

TEST(ObsReport, TracedParaleonCellPassesTheSchemaChecks) {
  const TracedCell cell = run_fig8_cell("paraleon", /*perf=*/true);
  ASSERT_TRUE(cell.has_controller);
  EXPECT_GT(check_obs_report(cell.report, cell.has_controller), 0u)
      << "the PARALEON cell ran no SA trial";
  EXPECT_TRUE(at(cell.report, "perf").find("enabled")->as_bool());
  EXPECT_GT(at(at(cell.report, "trace"), "dropped").as_uint64(), 0u);
  EXPECT_EQ(check_trace(cell.trace),
            at(at(cell.report, "trace"), "recorded").as_uint64());
}

TEST(ObsReport, TracedDefaultCellCarriesNoTunerRows) {
  // No sketch, no controller, perf off: the report still passes, because
  // the rows it must carry follow its run.
  const TracedCell cell = run_fig8_cell("default", /*perf=*/false);
  ASSERT_FALSE(cell.has_controller);
  EXPECT_EQ(check_obs_report(cell.report, cell.has_controller), 0u);
  EXPECT_TRUE(at(cell.report, "episodes").items().empty());
  EXPECT_EQ(check_trace(cell.trace),
            at(at(cell.report, "trace"), "recorded").as_uint64());
}

}  // namespace
}  // namespace paraleon::doc_checks
