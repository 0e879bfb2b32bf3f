// Table II reproduction: NCCL-Tests alltoall algorithmic bandwidth under
// the Default vs Expert DCQCN settings, swept over message sizes.
//
// Paper: 128x128 alltoall on 400G H100s, sizes 512MB..8192MB, algbw GB/s.
// Here: 16x16 alltoall on the scaled 10G fabric, sizes scaled 1:512.
// The reproduced *shape*: Expert >> Default, and the gap persists (or
// widens) with message size.
//
// The scheme x size grid comes from scenarios/table2_alltoall_presets.json;
// each cell's value is the mean algbw of the collective's completed rounds
// (two, the run's horizon is bounded by max_rounds).
#include <cstdio>

#include "bench_common.hpp"
#include "workload/alltoall_workload.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// The cell's table value: mean algbw (GB/s) over the collective's
/// completed rounds, 0 when none completed.
double mean_algbw(const scenario::GridCell&, Experiment&,
                  const scenario::FlowScheduler& flows) {
  const auto& a2a = dynamic_cast<const workload::AlltoallWorkload&>(
      *flows.find("collective"));
  const int rounds = a2a.rounds_completed();
  if (rounds == 0) return 0.0;
  double sum = 0.0;
  for (int r = 0; r < rounds; ++r) sum += a2a.round_algbw_gbs(r);
  return sum / rounds;
}

int run(const scenario::Scenario& sc) {
  print_header(
      "Table II: alltoall out-of-place algbw (GB/s), Default vs Expert",
      scenario_note(sc));
  const auto& schemes = sc.sweep[0].values;
  const auto& sizes_kb = sc.sweep[1].values;
  std::printf("%-12s", "size_per_pair");
  for (const auto& s : sizes_kb) {
    std::printf("%8lldKB", static_cast<long long>(s.as_int64()));
  }
  std::printf("\n");
  const auto algbw = harvest_grid(sc, /*jobs=*/1, mean_algbw);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    std::printf("%-12s", scheme_name(scenario::scheme_from_name(
                                         schemes[i].as_string()))
                             .c_str());
    for (std::size_t s = 0; s < sizes_kb.size(); ++s) {
      std::printf("%10.3f", algbw[i * sizes_kb.size() + s]);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper Table II shape: Expert exceeds Default at every size, by\n"
      "2-6x (e.g. 25.69 vs 6.37 GB/s at 512MB). Expect the same ordering\n"
      "with a growing absolute gap here.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("table2_alltoall_presets.json", false, run);
}
