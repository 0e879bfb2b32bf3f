// Fig. 9 reproduction: PARALEON vs offline-pretrained static settings.
//
// Pretrained 1 is frozen from an offline PARALEON run on the LLM alltoall
// workload (scenarios/fig9_pretrain_alltoall.json); Pretrained 2 from an
// offline run on FB_Hadoop (scenarios/fig9_pretrain_fb_hadoop.json). Both
// are then replayed as static settings on the Fig. 8 influx scenario
// against live PARALEON. Reproduced shape: each pretrained setting is good
// for "its" phase but cannot adapt; live PARALEON wins across phases.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// The live runs replay the PARALEON cell of scenarios/fig8_influx.json,
/// shortened to 260 ms and with one MI per SA candidate; the after-influx
/// window starts 20 ms after the burst stops.
scenario::GridCell live_cell(const scenario::Scenario& fig8) {
  common::Json doc = fig8.doc;
  doc.erase("sweep");
  const common::Json patches = common::Json::parse(R"({
    "duration_ms": 260,
    "scheme.params.controller.eval_mi_per_candidate": 1,
    "metrics.after_tput_gbps.from_ms": 170,
    "metrics.after_rtt_us.from_ms": 170
  })");
  for (const auto& [key, value] : patches.members()) {
    scenario::apply_dotted_patch(doc, key, value);
  }
  return {0, {}, scenario::parse_scenario(doc, fig8.name)};
}

/// An offline pretraining run: the parameters PARALEON learned on the
/// sweep-less `pre`, frozen for replay as a static setting.
dcqcn::DcqcnParams pretrain(const scenario::Scenario& pre) {
  return harvest_grid(pre, /*jobs=*/1, [](const auto&, Experiment& exp,
                                          const auto&) {
           return exp.learned_params();
         }).front();
}

/// The pretraining runs' duration as the scaling note states it: "200 ms",
/// or "A ms / B ms" when the two files differ.
std::string pretrain_duration(const scenario::Scenario& pre1,
                              const scenario::Scenario& pre2) {
  char buf[64];
  if (pre1.duration_ms == pre2.duration_ms) {
    std::snprintf(buf, sizeof buf, "%g ms", pre1.duration_ms);
  } else {
    std::snprintf(buf, sizeof buf, "%g ms / %g ms", pre1.duration_ms,
                  pre2.duration_ms);
  }
  return buf;
}

/// Runs the live cell, under `pretrained` as a static setting when given,
/// and prints its row.
void run_live(const char* name, const scenario::GridCell& live,
              const dcqcn::DcqcnParams* pretrained = nullptr) {
  scenario::GridOptions opts;
  if (pretrained != nullptr) {
    opts.on_config = [pretrained](const scenario::GridCell&,
                                  ExperimentConfig& cfg) {
      cfg.scheme = Scheme::kCustomStatic;
      cfg.custom_params = *pretrained;
    };
  }
  const scenario::CellResult r = scenario::run_cell(live, opts);
  std::printf("%-14s", name);
  print_phase_metrics(r);
  std::printf("\n");
}

int run(const scenario::Scenario& sc) {
  const scenario::GridCell live = live_cell(sc);
  const scenario::Scenario alltoall = scenario::load_scenario_file(
      scenario_path("fig9_pretrain_alltoall.json"));
  const scenario::Scenario fb_hadoop = scenario::load_scenario_file(
      scenario_path("fig9_pretrain_fb_hadoop.json"));
  print_header("Fig. 9: live PARALEON vs offline-pretrained static settings",
               scaling_note(scenario::to_experiment_config(live.scenario),
                            "pretraining: " +
                                pretrain_duration(alltoall, fb_hadoop) +
                                " offline episodes; evaluation: the Fig. 8 "
                                "influx scenario"));
  const dcqcn::DcqcnParams pre1 = pretrain(alltoall);
  const dcqcn::DcqcnParams pre2 = pretrain(fb_hadoop);
  std::printf("Pretrained1 (alltoall):  %s\n", dcqcn::to_string(pre1).c_str());
  std::printf("Pretrained2 (fb_hadoop): %s\n\n",
              dcqcn::to_string(pre2).c_str());
  std::printf("%-14s | %8s %8s | %8s %8s | %8s %8s\n", "scheme",
              "pre_Gbps", "pre_rtt", "inf_Gbps", "inf_rtt", "post_Gbps",
              "post_rtt");
  run_live("Pretrained1", live, &pre1);
  run_live("Pretrained2", live, &pre2);
  run_live("PARALEON", live);
  std::printf(
      "\nPaper Fig. 9 shape: the pretrained settings capture only their\n"
      "training workload; live PARALEON achieves lower RTT during the\n"
      "influx AND higher throughput afterwards.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig8_influx.json", false, run);
}
