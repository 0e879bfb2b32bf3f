// Fig. 7 reproduction: FCT performance of five tuning schemes.
//
// (a)(b) FB_Hadoop @30% load: average and p99.9 FCT slowdown per flow-size
//        band, for Default / Expert / ACC / DCQCN+ / PARALEON.
// (c)(d) LLM alltoall: FCT CDF at two collective scales.
// Reproduced shape: PARALEON at or near the best on mice AND elephants;
// the single-mechanism baselines (ACC: switch-only, DCQCN+: RNIC-only)
// land between Default and PARALEON.
//
// (a)(b) run scenarios/fig7_fb_hadoop.json and (c)(d)
// scenarios/fig7_llm_alltoall.json through the grid runner (`--jobs N`
// fans the cells out); each cell formats its own table row, so the tables
// are identical at any worker count.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "workload/alltoall_workload.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

BenchCli g_cli;

/// (a)(b) row: flows finished/started, then avg and p99.9 slowdown per
/// size band.
std::string hadoop_row(const scenario::GridCell&, Experiment& exp,
                       const scenario::FlowScheduler&) {
  const auto small = exp.fct().slowdowns(0, 120 << 10);
  const auto mid = exp.fct().slowdowns(120 << 10, 1 << 20);
  const auto big = exp.fct().slowdowns(1 << 20, 1ll << 40);
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-10s %5zu/%-5zu | %-10.2f %-10.2f | %-10.2f %-10.2f | %-10.2f "
      "%-10.2f",
      scheme_name(exp.config().scheme).c_str(), exp.fct().finished(),
      exp.fct().started(), stats::mean(small), stats::quantile(small, 0.999),
      stats::mean(mid), stats::quantile(mid, 0.999), stats::mean(big),
      stats::quantile(big, 0.999));
  return buf;
}

/// (c)(d) row: FCT quantiles (ms) and the collective's completed rounds.
std::string collective_row(const scenario::GridCell&, Experiment& exp,
                           const scenario::FlowScheduler& flows) {
  const auto& a2a = dynamic_cast<const workload::AlltoallWorkload&>(
      *flows.find("collective"));
  auto fcts = exp.fct().fct_seconds(0, 1ll << 40);
  for (auto& f : fcts) f *= 1e3;  // ms
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-10s %-10.2f %-10.2f %-10.2f %-10.2f %-10d",
                scheme_name(exp.config().scheme).c_str(),
                stats::quantile(fcts, 0.5), stats::quantile(fcts, 0.9),
                stats::quantile(fcts, 0.99), stats::quantile(fcts, 1.0),
                a2a.rounds_completed());
  return buf;
}

void fb_hadoop_part(const scenario::Scenario& sc) {
  // Load is defined on host uplinks; with the 4:1 core and ~87% of pairs
  // cross-rack, 20% host load puts the fabric at ~70% — the paper's "30%"
  // regime relative to its core (see the scaling note).
  const ExperimentConfig cfg = scenario::to_experiment_config(sc);
  std::printf("\n(a)(b) FB_Hadoop @%g%% host load, %d hosts, %g ms\n",
              sc.workload.front().load * 100,
              cfg.clos.n_tor * cfg.clos.hosts_per_tor, sc.duration_ms);
  std::printf("%-10s %-7s | %-21s | %-21s | %-21s\n", "", "",
              "<120KB", "120KB-1MB", ">=1MB");
  std::printf("%-10s %-7s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n",
              "scheme", "flows", "avg", "p99.9", "avg", "p99.9", "avg",
              "p99.9");
  for (const auto& row : harvest_grid(sc, g_cli.jobs, hadoop_row)) {
    std::printf("%s\n", row.c_str());
  }
}

/// (c)(d): one table per value of the outer workers axis.
void llm_part(const scenario::Scenario& sc) {
  const auto rows = harvest_grid(sc, g_cli.jobs, collective_row);
  const auto& workers = sc.sweep[0].values;
  const std::size_t per_table = rows.size() / workers.size();
  for (std::size_t t = 0; t < workers.size(); ++t) {
    std::printf("\n(c)(d) LLM alltoall FCT CDF, %lld workers, 512KB flows\n",
                static_cast<long long>(workers[t].as_int64()));
    std::printf("%-10s %-10s %-10s %-10s %-10s %-10s\n", "scheme", "p50_ms",
                "p90_ms", "p99_ms", "max_ms", "rounds");
    for (std::size_t i = 0; i < per_table; ++i) {
      std::printf("%s\n", rows[t * per_table + i].c_str());
    }
  }
}

int run(const scenario::Scenario& fb) {
  const scenario::Scenario llm = scenario::load_scenario_file(
      scenario_path("fig7_llm_alltoall.json"), g_cli.tiny);
  print_header("Fig. 7: FCT of 5 tuning schemes (FB_Hadoop + LLM alltoall)",
               scenario_note(fb));
  fb_hadoop_part(fb);
  llm_part(llm);
  std::printf(
      "\nPaper Fig. 7 shape: PARALEON's avg FCT beats the baselines by\n"
      ">=3.8%% on mice and up to 61.4%% on elephants (a,b), and its tail\n"
      "FCT at both alltoall scales improves up to 54.5%% (c,d). Expect\n"
      "PARALEON ahead of Default/ACC/DCQCN+ here; the scaled Expert preset\n"
      "is a strong static baseline at this fabric scale (see\n"
      "EXPERIMENTS.md).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv, kTiny | kJobs);
  return run_with_scenario("fig7_fb_hadoop.json", g_cli.tiny, run);
}
