// Ablation of this implementation's engineering additions on top of the
// paper's Algorithm 1 (documented in DESIGN.md): the candidate evaluation
// window, the post-episode revert safeguard, the trigger kick + regime
// memory, and the steady-state ratchet. "Plain Alg.1" disables all of
// them; each column re-enables one.
//
// Scenario: the PARALEON cell of scenarios/fig8_influx.json (LLM alltoall +
// FB_Hadoop burst), run as a grid whose one `scheme.params` axis holds a
// variant per value: each overrides only the four toggles.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;
using common::Json;

namespace {

struct Variant {
  const char* name;
  bool eval_window;
  bool revert;
  bool kick;
  bool ratchet;
};

constexpr Variant kVariants[] = {
    {"plain_alg1", false, false, false, false},
    {"+eval_window", true, false, false, false},
    {"+revert", true, true, false, false},
    {"+kick_regime", true, true, true, false},
    {"full(+ratchet)", true, true, true, true},
};

/// A variant as one object value of a `scheme.params` axis: the four
/// toggles as parameter overrides.
Json variant_params(const Variant& v) {
  return Json::make_object({
      {"controller.eval_mi_per_candidate",
       Json::make_int(v.eval_window ? 2 : 1)},
      {"controller.post_check_window_mi", Json::make_int(v.revert ? 10 : 0)},
      {"controller.trigger_kick_steps", Json::make_int(v.kick ? 6 : 0)},
      {"controller.steady_retrigger_mi", Json::make_int(v.ratchet ? 40 : 0)},
  });
}

int run(scenario::Scenario sc) {
  print_header(
      "Engineering ablation: Algorithm 1 additions (Fig. 8 scenario)",
      scaling_note(scenario::to_experiment_config(sc),
                   "columns: mean goodput / RTT / Eq.(1) utility over "
                   "the run, episode and revert counts"));
  std::printf("%-18s %8s %10s %10s %6s %6s\n", "variant", "Gbps", "rtt_us",
              "utility", "eps", "revs");
  // The file's PARALEON cell, once per variant: fig8's scheme axis gives
  // way to one axis over the four toggles.
  scenario::SweepAxis axis{"scheme.params", {}};
  for (const Variant& v : kVariants) axis.values.push_back(variant_params(v));
  sc.sweep = {axis};
  // Each row is formatted on its cell's worker; the columns are means
  // from 60 ms to the end of the run, then episode and revert counts.
  const std::vector<std::string> rows = harvest_grid(
      sc, /*jobs=*/1,
      [](const scenario::GridCell& cell, Experiment& exp,
         const scenario::FlowScheduler&) {
        const Time from = milliseconds(60);
        const Time end = exp.config().duration;
        const auto& c = *exp.controller();
        char row[128];
        std::snprintf(row, sizeof row,
                      "%-18s %8.2f %10.2f %10.4f %6llu %6llu\n",
                      kVariants[cell.index].name,
                      exp.throughput_series().mean_in(from, end),
                      exp.rtt_series().mean_in(from, end),
                      c.utility_series().mean_in(from, end),
                      static_cast<unsigned long long>(c.episodes()),
                      static_cast<unsigned long long>(c.reverts()));
        return std::string(row);
      });
  for (const std::string& row : rows) std::fputs(row.c_str(), stdout);
  std::printf(
      "\nExpectation: utility climbs (or holds with lower variance) as the\n"
      "safeguards come in; 'plain_alg1' shows the exploration damage an\n"
      "unguarded 1-MI-evaluation loop inflicts at this fabric scale.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("fig8_influx.json", false, run);
}
