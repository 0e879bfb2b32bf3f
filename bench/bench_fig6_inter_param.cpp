// Fig. 6 reproduction: inter-parameter impacts — a 2-D sweep of
// rpg_time_reset x Kmax on throughput and RTT.
//
// Paper finding: driving both parameters in the throughput-friendly
// direction simultaneously (small rpg_time_reset + large Kmax) is NOT
// monotonically better — over-aggressive injection overshoots the
// equilibrium, triggering CNP/PFC storms and convex/concave artefacts.
//
// The grid is scenarios/fig6_inter_param.json: a 4:1 fabric with a scaled
// shallow buffer, so over-aggressive injection drives fabric queues into
// PFC — the mechanism behind the paper's artefacts. Each kmax axis value
// also sets kmin to a quarter of kmax, as in the paper.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// One table: rows are the rpg_time_reset axis, columns the kmax axis
/// (each value moves kmax and kmin together); `column` reads a cell's
/// value.
template <typename Column>
void print_table(const scenario::Scenario& sc, const char* title,
                 const std::vector<scenario::CellResult>& grid,
                 Column column) {
  const auto& resets = sc.sweep[0].values;
  const auto& kmaxes = sc.sweep[1].values;
  std::printf("\n%s:\n%-18s", title, "t_reset \\ kmax");
  for (const auto& k : kmaxes) {
    const common::Json* kmax = k.find("dcqcn.kmax_kb");
    if (kmax == nullptr) {
      throw scenario::ScenarioError(
          sc.name + ": each kmax axis value needs \"dcqcn.kmax_kb\"");
    }
    std::printf("%8lldKB", static_cast<long long>(kmax->as_int64()));
  }
  std::printf("\n");
  for (std::size_t r = 0; r < resets.size(); ++r) {
    std::printf("%-16.0fus", resets[r].as_double());
    for (std::size_t c = 0; c < kmaxes.size(); ++c) {
      std::printf("%10.2f", column(grid[r * kmaxes.size() + c]));
    }
    std::printf("\n");
  }
}

int run(const scenario::Scenario& sc) {
  print_header("Fig. 6: inter-parameter impact grid (rpg_time_reset x kmax)",
               scenario_note(sc));
  const std::vector<scenario::CellResult> grid =
      scenario::run_grid(sc).results();
  print_table(sc, "Throughput (Gbps)", grid,
              [](const scenario::CellResult& r) { return r.value; });
  print_table(sc, "RTT (us)", grid, [](const scenario::CellResult& r) {
    return cell_metric(r, "rtt_us");
  });
  std::printf(
      "\nPaper Fig. 6 shape: along the 'both throughput-friendly' diagonal\n"
      "(towards top-right: small t_reset, large kmax) throughput is NOT\n"
      "monotone — the most aggressive corner should underperform some\n"
      "interior cell, and RTT grows sharply there.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig6_inter_param.json", false, run);
}
