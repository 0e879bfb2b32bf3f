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

constexpr Time kInfluxStart = milliseconds(120);
constexpr Time kInfluxEnd = milliseconds(150);
constexpr Time kEnd = milliseconds(260);

ExperimentConfig live_cfg(Scheme s, std::uint64_t seed) {
  ExperimentConfig cfg = paper_fabric(s, seed);
  cfg.duration = kEnd;
  cfg.controller.episode_cooldown_mi = 10;
  cfg.controller.steady_retrigger_mi = 0;  // pure KL-triggered adaptation
  cfg.controller.post_check_window_mi = 5;
  cfg.controller.sa.total_iter_num = 3;
  cfg.controller.sa.cooling_rate = 0.5;
  cfg.controller.sa.final_temp = 30;
  cfg.controller.eval_mi_per_candidate = 1;
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

void run_influx(const std::string& name, ExperimentConfig cfg) {
  Experiment exp(std::move(cfg));
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 16; ++i) a2a.workers.push_back(i * 4);
  a2a.flow_size = 512 * 1024;
  a2a.off_period = milliseconds(1);
  exp.add_alltoall(a2a);
  workload::PoissonConfig burst = fb_hadoop(exp, 0.4, kInfluxEnd, 2009);
  burst.start = kInfluxStart;
  exp.add_poisson(burst);
  exp.run();
  const auto& tput = exp.throughput_series();
  const auto& rtt = exp.rtt_series();
  std::printf("%-14s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
              name.c_str(), tput.mean_in(milliseconds(60), kInfluxStart),
              rtt.mean_in(milliseconds(60), kInfluxStart),
              tput.mean_in(kInfluxStart + milliseconds(2), kInfluxEnd),
              rtt.mean_in(kInfluxStart + milliseconds(2), kInfluxEnd),
              tput.mean_in(kInfluxEnd + milliseconds(20), kEnd),
              rtt.mean_in(kInfluxEnd + milliseconds(20), kEnd));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 9: live PARALEON vs offline-pretrained static settings",
               scaling_note(paper_fabric(Scheme::kParaleon, 71),
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
  {
    ExperimentConfig c = live_cfg(Scheme::kCustomStatic, 9);
    c.custom_params = pre1;
    run_influx("Pretrained1", std::move(c));
  }
  {
    ExperimentConfig c = live_cfg(Scheme::kCustomStatic, 9);
    c.custom_params = pre2;
    run_influx("Pretrained2", std::move(c));
  }
  run_influx("PARALEON", live_cfg(Scheme::kParaleon, 9));
  std::printf(
      "\nPaper Fig. 9 shape: the pretrained settings capture only their\n"
      "training workload; live PARALEON achieves lower RTT during the\n"
      "influx AND higher throughput afterwards.\n");
  TrendReport trend("fig9_pretrained");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
