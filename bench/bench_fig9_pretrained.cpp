// Fig. 9 reproduction: PARALEON vs offline-pretrained static settings.
//
// Pretrained 1 is frozen from an offline PARALEON run on the LLM alltoall
// workload; Pretrained 2 from an offline run on FB_Hadoop. Both are then
// replayed as static settings on the Fig. 8 influx scenario against live
// PARALEON. Reproduced shape: each pretrained setting is good for "its"
// phase but cannot adapt; live PARALEON wins across phases.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// The live runs replay the PARALEON cell of scenarios/fig8_influx.json,
/// shortened to 260 ms and with one MI per SA candidate. A pretrained
/// setting replaces PARALEON with that static setting.
ExperimentConfig live_cfg(const scenario::Scenario& sc,
                          const dcqcn::DcqcnParams* pretrained = nullptr) {
  ExperimentConfig cfg = scenario::to_experiment_config(sc);
  cfg.duration = milliseconds(260);
  cfg.controller.eval_mi_per_candidate = 1;
  if (pretrained != nullptr) {
    cfg.scheme = Scheme::kCustomStatic;
    cfg.custom_params = *pretrained;
  }
  return cfg;
}

dcqcn::DcqcnParams pretrain_on_alltoall() {
  ExperimentConfig cfg = paper_fabric(Scheme::kParaleon, 71);
  cfg.duration = milliseconds(200);
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 16; ++i) a2a.workers.push_back(i * 4);
  a2a.flow_size = 512 * 1024;
  a2a.off_period = milliseconds(1);
  exp.add_alltoall(a2a);
  exp.controller()->force_trigger();
  exp.run();
  return exp.learned_params();
}

dcqcn::DcqcnParams pretrain_on_fb_hadoop() {
  ExperimentConfig cfg = paper_fabric(Scheme::kParaleon, 72);
  cfg.duration = milliseconds(200);
  Experiment exp(cfg);
  exp.add_poisson(fb_hadoop(exp, 0.4, milliseconds(190), 72));
  exp.controller()->force_trigger();
  exp.run();
  return exp.learned_params();
}

void run_influx(const char* name, const scenario::Scenario& sc,
                InfluxWindow influx, const ExperimentConfig& cfg) {
  Experiment exp(cfg);
  scenario::FlowScheduler(sc, &exp).install_all();
  exp.run();
  std::printf("%-14s", name);
  print_phase_means(phase_means(exp, influx, milliseconds(60),
                                influx.stop + milliseconds(20)));
  std::printf("\n");
}

int run(const scenario::Scenario& sc, const BenchCli& cli) {
  const WallTimer wall;
  const InfluxWindow influx = influx_window(sc);
  print_header("Fig. 9: live PARALEON vs offline-pretrained static settings",
               scaling_note(live_cfg(sc),
                            "pretraining: 200 ms offline episodes; "
                            "evaluation: the Fig. 8 influx scenario"));
  const dcqcn::DcqcnParams pre1 = pretrain_on_alltoall();
  const dcqcn::DcqcnParams pre2 = pretrain_on_fb_hadoop();
  std::printf("Pretrained1 (alltoall):  %s\n", dcqcn::to_string(pre1).c_str());
  std::printf("Pretrained2 (fb_hadoop): %s\n\n",
              dcqcn::to_string(pre2).c_str());
  std::printf("%-14s | %8s %8s | %8s %8s | %8s %8s\n", "scheme",
              "pre_Gbps", "pre_rtt", "inf_Gbps", "inf_rtt", "post_Gbps",
              "post_rtt");
  run_influx("Pretrained1", sc, influx, live_cfg(sc, &pre1));
  run_influx("Pretrained2", sc, influx, live_cfg(sc, &pre2));
  run_influx("PARALEON", sc, influx, live_cfg(sc));
  std::printf(
      "\nPaper Fig. 9 shape: the pretrained settings capture only their\n"
      "training workload; live PARALEON achieves lower RTT during the\n"
      "influx AND higher throughput afterwards.\n");
  write_wall_trend(cli.perf_out, "fig9_pretrained", wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  return run_with_scenario(
      "fig8_influx.json", false,
      [&cli](const scenario::Scenario& sc) { return run(sc, cli); });
}
