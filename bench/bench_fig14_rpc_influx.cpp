// Fig. 14 reproduction (testbed experiment, simulated): runtime bandwidth
// and latency with a SolarRPC influx over an alltoall background.
//
// Paper: 32-node alltoall background; a SolarRPC burst (all mice <128 KB,
// Poisson WRITEs) arrives for a window. PARALEON drops latency while the
// mice dominate, then restores bandwidth; Default/Expert cannot adapt.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

constexpr Time kBurstStart = milliseconds(120);
constexpr Time kBurstEnd = milliseconds(170);
constexpr Time kEnd = milliseconds(280);

void run_scheme(Scheme s) {
  ExperimentConfig cfg = paper_fabric(s, 77);
  cfg.duration = kEnd;
  cfg.controller.episode_cooldown_mi = 10;
  cfg.controller.steady_retrigger_mi = 0;  // pure KL-triggered adaptation
  cfg.controller.post_check_window_mi = 5;
  cfg.controller.sa.total_iter_num = 3;
  cfg.controller.sa.cooling_rate = 0.5;
  cfg.controller.sa.final_temp = 30;
  cfg.controller.eval_mi_per_candidate = 1;
  Experiment exp(cfg);

  // Moderate background so the burst window is congested but not fully
  // saturated (a saturated fabric would mask scheme differences).
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 16; ++i) a2a.workers.push_back(i * 4);
  a2a.flow_size = 256 * 1024;
  a2a.off_period = milliseconds(2);
  exp.add_alltoall(a2a);

  workload::PoissonConfig rpc;
  rpc.hosts = exp.all_hosts();
  rpc.sizes = &workload::solar_rpc_distribution();
  rpc.load = 0.12;
  rpc.start = kBurstStart;
  rpc.stop = kBurstEnd;
  rpc.seed = 7701;
  exp.add_poisson(rpc);
  exp.run();

  const auto& tput = exp.throughput_series();
  const auto& rtt = exp.rtt_series();
  const auto rpc_sd = exp.fct().slowdowns(0, 128 << 10);
  std::printf("%-10s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %10.2f\n",
              scheme_name(s).c_str(),
              tput.mean_in(milliseconds(60), kBurstStart),
              rtt.mean_in(milliseconds(60), kBurstStart),
              tput.mean_in(kBurstStart + milliseconds(2), kBurstEnd),
              rtt.mean_in(kBurstStart + milliseconds(2), kBurstEnd),
              tput.mean_in(kBurstEnd + milliseconds(20), kEnd),
              rtt.mean_in(kBurstEnd + milliseconds(20), kEnd),
              stats::quantile(rpc_sd, 0.99));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 14: runtime bandwidth & latency with SolarRPC influx",
               scaling_note(paper_fabric(Scheme::kParaleon, 77),
                            "32-worker alltoall background + 50 ms SolarRPC "
                            "burst @25% load (paper: 32 H100 nodes @400G)"));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "", "before",
              "", "burst", "", "after", "", "rpc");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "scheme",
              "Gbps", "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us",
              "p99_slow");
  for (Scheme s : {Scheme::kDefaultStatic, Scheme::kExpertStatic,
                   Scheme::kParaleon}) {
    run_scheme(s);
  }
  std::printf(
      "\nPaper Fig. 14 shape: PARALEON has the lowest latency (and best\n"
      "RPC tail) during the burst and recovers bandwidth fastest after\n"
      "it.\n");
  TrendReport trend("fig14_rpc_influx");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
