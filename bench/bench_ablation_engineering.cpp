// Ablation of this implementation's engineering additions on top of the
// paper's Algorithm 1 (documented in DESIGN.md): the candidate evaluation
// window, the post-episode revert safeguard, the trigger kick + regime
// memory, and the steady-state ratchet. "Plain Alg.1" disables all of
// them; each column re-enables one.
//
// Scenario: the PARALEON cell of scenarios/fig8_influx.json (LLM alltoall +
// FB_Hadoop burst); each variant overrides only the four toggles.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

struct Variant {
  const char* name;
  bool eval_window;
  bool revert;
  bool kick;
  bool ratchet;
};

void run_variant(const scenario::Scenario& sc, const Variant& v) {
  ExperimentConfig cfg = scenario::to_experiment_config(sc);
  cfg.controller.eval_mi_per_candidate = v.eval_window ? 2 : 1;
  cfg.controller.post_check_window_mi = v.revert ? 10 : 0;
  cfg.controller.trigger_kick_steps = v.kick ? 6 : 0;
  cfg.controller.steady_retrigger_mi = v.ratchet ? 40 : 0;
  Experiment exp(cfg);
  scenario::FlowScheduler(sc, &exp).install_all();
  exp.run();

  const Time end = cfg.duration;
  const auto& c = *exp.controller();
  std::printf("%-18s %8.2f %10.2f %10.4f %6llu %6llu\n", v.name,
              exp.throughput_series().mean_in(milliseconds(60), end),
              exp.rtt_series().mean_in(milliseconds(60), end),
              c.utility_series().mean_in(milliseconds(60), end),
              static_cast<unsigned long long>(c.episodes()),
              static_cast<unsigned long long>(c.reverts()));
}

int run(const scenario::Scenario& sc) {
  print_header(
      "Engineering ablation: Algorithm 1 additions (Fig. 8 scenario)",
      scaling_note(scenario::to_experiment_config(sc),
                   "columns: mean goodput / RTT / Eq.(1) utility over "
                   "the run, episode and revert counts"));
  std::printf("%-18s %8s %10s %10s %6s %6s\n", "variant", "Gbps", "rtt_us",
              "utility", "eps", "revs");
  const Variant variants[] = {
      {"plain_alg1", false, false, false, false},
      {"+eval_window", true, false, false, false},
      {"+revert", true, true, false, false},
      {"+kick_regime", true, true, true, false},
      {"full(+ratchet)", true, true, true, true},
  };
  for (const auto& v : variants) run_variant(sc, v);
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
