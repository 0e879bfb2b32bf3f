// Ablation of this implementation's engineering additions on top of the
// paper's Algorithm 1 (documented in DESIGN.md): the candidate evaluation
// window, the post-episode revert safeguard, the trigger kick + regime
// memory, and the steady-state ratchet. "Plain Alg.1" disables all of
// them; each column re-enables one.
//
// Scenario: the Fig. 8 influx (LLM alltoall + FB_Hadoop burst).
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

constexpr Time kInfluxStart = milliseconds(120);
constexpr Time kInfluxEnd = milliseconds(150);
constexpr Time kEnd = milliseconds(380);

struct Variant {
  const char* name;
  bool eval_window;
  bool revert;
  bool kick;
  bool ratchet;
};

void run_variant(const Variant& v) {
  ExperimentConfig cfg = paper_fabric(Scheme::kParaleon, 9);
  cfg.duration = kEnd;
  cfg.controller.episode_cooldown_mi = 10;
  cfg.controller.sa.total_iter_num = 3;
  cfg.controller.sa.cooling_rate = 0.5;
  cfg.controller.sa.final_temp = 30;
  cfg.controller.eval_mi_per_candidate = v.eval_window ? 2 : 1;
  cfg.controller.post_check_window_mi = v.revert ? 10 : 0;
  cfg.controller.trigger_kick_steps = v.kick ? 6 : 0;
  cfg.controller.steady_retrigger_mi = v.ratchet ? 40 : 0;
  Experiment exp(cfg);

  workload::AlltoallConfig a2a;
  for (int i = 0; i < 16; ++i) a2a.workers.push_back(i * 4);
  a2a.flow_size = 512 * 1024;
  a2a.off_period = milliseconds(1);
  exp.add_alltoall(a2a);
  workload::PoissonConfig burst = fb_hadoop(exp, 0.4, kInfluxEnd, 2009);
  burst.start = kInfluxStart;
  exp.add_poisson(burst);
  exp.run();

  const auto& c = *exp.controller();
  std::printf("%-18s %8.2f %10.2f %10.4f %6llu %6llu\n", v.name,
              exp.throughput_series().mean_in(milliseconds(60), kEnd),
              exp.rtt_series().mean_in(milliseconds(60), kEnd),
              c.utility_series().mean_in(milliseconds(60), kEnd),
              static_cast<unsigned long long>(c.episodes()),
              static_cast<unsigned long long>(c.reverts()));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header(
      "Engineering ablation: Algorithm 1 additions (Fig. 8 scenario)",
      scaling_note(paper_fabric(Scheme::kParaleon, 9),
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
  for (const auto& v : variants) run_variant(v);
  std::printf(
      "\nExpectation: utility climbs (or holds with lower variance) as the\n"
      "safeguards come in; 'plain_alg1' shows the exploration damage an\n"
      "unguarded 1-MI-evaluation loop inflicts at this fabric scale.\n");
  TrendReport trend("ablation_engineering");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
