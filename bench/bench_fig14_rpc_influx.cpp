// Fig. 14 reproduction (testbed experiment, simulated): runtime bandwidth
// and latency with a SolarRPC influx over an alltoall background.
//
// Paper: 32-node alltoall background; a SolarRPC burst (all mice <128 KB,
// Poisson WRITEs) arrives for a window. PARALEON drops latency while the
// mice dominate, then restores bandwidth; Default/Expert cannot adapt.
//
// The scheme table runs scenarios/fig14_rpc_influx.json through the
// scenario engine's GridRunner; the header's note is the file's
// description.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// Per-cell table row harvested by the grid's on_cell hook.
struct Fig14Slot {
  Scheme scheme = Scheme::kParaleon;
  PhaseMeans phases;
  double rpc_p99_slowdown = 0;
};

int run(const scenario::Scenario& sc) {
  print_header("Fig. 14: runtime bandwidth & latency with SolarRPC influx",
               scenario_note(sc));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "", "before",
              "", "burst", "", "after", "", "rpc");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "scheme",
              "Gbps", "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us",
              "p99_slow");

  // The scheme axis leaves the burst where the base file puts it.
  const InfluxWindow burst = influx_window(sc);
  const auto slots = harvest_grid(
      sc, /*jobs=*/1, [&](const auto&, auto& exp, const auto&) {
        // The RPC tail: every SolarRPC flow is a mouse under 128 KB.
        return Fig14Slot{
            exp.config().scheme,
            phase_means(exp, burst, milliseconds(60),
                        burst.stop + milliseconds(20)),
            stats::quantile(exp.fct().slowdowns(0, 128 << 10), 0.99)};
      });
  for (const Fig14Slot& slot : slots) {
    std::printf("%-10s", scheme_name(slot.scheme).c_str());
    print_phase_means(slot.phases);
    std::printf(" | %10.2f\n", slot.rpc_p99_slowdown);
  }
  std::printf(
      "\nPaper Fig. 14 shape: PARALEON has the lowest latency (and best\n"
      "RPC tail) during the burst and recovers bandwidth fastest after\n"
      "it.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig14_rpc_influx.json", false, run);
}
