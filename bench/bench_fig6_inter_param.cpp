// Fig. 6 reproduction: inter-parameter impacts — a 2-D sweep of
// rpg_time_reset x Kmax on throughput and RTT.
//
// Paper finding: driving both parameters in the throughput-friendly
// direction simultaneously (small rpg_time_reset + large Kmax) is NOT
// monotonically better — over-aggressive injection overshoots the
// equilibrium, triggering CNP/PFC storms and convex/concave artefacts.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Point {
  double tput_gbps = 0;
  double rtt_us = 0;
};

Point run_cell(Time rpg_time_reset, std::int64_t kmax) {
  ExperimentConfig cfg = small_fabric(Scheme::kCustomStatic, 13);
  // Match the paper's regime: a 4:1 oversubscribed fabric (40G down vs
  // 10G up per ToR) and a scaled shallow buffer, so over-aggressive
  // injection drives fabric queues into PFC — the mechanism behind the
  // paper's convex/concave artefacts.
  cfg.clos.fabric_link = gbps(5);
  cfg.clos.switch_cfg.buffer_bytes = 1200 * 1024;
  dcqcn::DcqcnParams p = dcqcn::scaled_for_line_rate(
      dcqcn::default_params(), gbps(100), gbps(10));
  p.rpg_time_reset = rpg_time_reset;
  p.kmax_bytes = kmax;
  p.kmin_bytes = kmax / 4;
  cfg.custom_params = p;
  cfg.duration = milliseconds(60);
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 12; ++i) a2a.workers.push_back(i);
  a2a.flow_size = 256 * 1024;
  a2a.off_period = microseconds(500);
  exp.add_alltoall(a2a);
  exp.run();
  return {exp.throughput_series().mean_in(milliseconds(10), milliseconds(60)),
          exp.rtt_series().mean_in(milliseconds(10), milliseconds(60))};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 6: inter-parameter impact grid (rpg_time_reset x kmax)",
               scaling_note(small_fabric(Scheme::kCustomStatic, 13),
                            "12x12 alltoall (paper used 100G NS3)"));
  const Time resets[] = {microseconds(30), microseconds(100),
                         microseconds(300), microseconds(900)};
  const std::int64_t kmaxes[] = {20 << 10, 80 << 10, 320 << 10, 1280 << 10};

  std::printf("\nThroughput (Gbps):\n%-18s", "t_reset \\ kmax");
  for (auto k : kmaxes)
    std::printf("%8lldKB", static_cast<long long>(k >> 10));
  std::printf("\n");
  std::vector<std::vector<Point>> grid;
  for (auto t : resets) {
    std::printf("%-16.0fus", to_us(t));
    grid.emplace_back();
    for (auto k : kmaxes) {
      const Point p = run_cell(t, k);
      grid.back().push_back(p);
      std::printf("%10.2f", p.tput_gbps);
    }
    std::printf("\n");
  }
  std::printf("\nRTT (us):\n%-18s", "t_reset \\ kmax");
  for (auto k : kmaxes)
    std::printf("%8lldKB", static_cast<long long>(k >> 10));
  std::printf("\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::printf("%-16.0fus", to_us(resets[i]));
    for (const Point& p : grid[i]) std::printf("%10.2f", p.rtt_us);
    std::printf("\n");
  }
  std::printf(
      "\nPaper Fig. 6 shape: along the 'both throughput-friendly' diagonal\n"
      "(towards top-right: small t_reset, large kmax) throughput is NOT\n"
      "monotone — the most aggressive corner should underperform some\n"
      "interior cell, and RTT grows sharply there.\n");
  TrendReport trend("fig6_inter_param");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
