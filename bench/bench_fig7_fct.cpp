// Fig. 7 reproduction: FCT performance of five tuning schemes.
//
// (a)(b) FB_Hadoop @30% load: average and p99.9 FCT slowdown per flow-size
//        band, for Default / Expert / ACC / DCQCN+ / PARALEON.
// (c)(d) LLM alltoall: FCT CDF at two collective scales.
// Reproduced shape: PARALEON at or near the best on mice AND elephants;
// the single-mechanism baselines (ACC: switch-only, DCQCN+: RNIC-only)
// land between Default and PARALEON.
//
// Each scheme row is one independent Experiment, so the rows of every
// table are computed through exec::parallel_map (`--jobs N` fans them
// out) and printed in scheme order afterwards — the table is identical
// at any worker count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_map.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

BenchCli g_cli;

const std::vector<Scheme> kSchemes = {Scheme::kDefaultStatic,
                                      Scheme::kExpertStatic, Scheme::kAcc,
                                      Scheme::kDcqcnPlus, Scheme::kParaleon};

std::string fb_hadoop_row(Scheme s) {
  ExperimentConfig cfg = paper_fabric(s, 3);
  cfg.duration = g_cli.tiny ? milliseconds(80) : milliseconds(700);
  Experiment exp(cfg);
  exp.add_poisson(fb_hadoop(exp, 0.2,
                            cfg.duration - milliseconds(20), 1003));
  exp.run();
  const auto band = [&](std::int64_t lo, std::int64_t hi) {
    return exp.fct().slowdowns(lo, hi);
  };
  const auto small = band(0, 120 << 10);
  const auto mid = band(120 << 10, 1 << 20);
  const auto big = band(1 << 20, 1ll << 40);
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-10s %5zu/%-5zu | %-10.2f %-10.2f | %-10.2f %-10.2f | %-10.2f "
      "%-10.2f",
      scheme_name(s).c_str(), exp.fct().finished(), exp.fct().started(),
      stats::mean(small), stats::quantile(small, 0.999), stats::mean(mid),
      stats::quantile(mid, 0.999), stats::mean(big),
      stats::quantile(big, 0.999));
  return buf;
}

void fb_hadoop_part() {
  // Load is defined on host uplinks; with the 4:1 core and ~87% of pairs
  // cross-rack, 20% host load puts the fabric at ~70% — the paper's "30%"
  // regime relative to its core (see the scaling note).
  std::printf("\n(a)(b) FB_Hadoop @20%% host load, 64 hosts, 700 ms\n");
  std::printf("%-10s %-7s | %-21s | %-21s | %-21s\n", "", "",
              "<120KB", "120KB-1MB", ">=1MB");
  std::printf("%-10s %-7s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n",
              "scheme", "flows", "avg", "p99.9", "avg", "p99.9", "avg",
              "p99.9");
  const auto rows = exec::parallel_map(kSchemes, fb_hadoop_row, g_cli.jobs);
  for (const std::string& row : rows) std::printf("%s\n", row.c_str());
}

std::string llm_row(Scheme s, int workers) {
  ExperimentConfig cfg = paper_fabric(s, 5);
  cfg.duration = g_cli.tiny ? milliseconds(60) : milliseconds(400);
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < workers; ++i) {
    a2a.workers.push_back(i * (64 / workers));
  }
  a2a.flow_size = 512 * 1024;
  a2a.off_period = milliseconds(2);
  auto& w = exp.add_alltoall(a2a);
  exp.run();
  auto fcts = exp.fct().fct_seconds(0, 1ll << 40);
  for (auto& f : fcts) f *= 1e3;  // ms
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-10s %-10.2f %-10.2f %-10.2f %-10.2f %-10d",
                scheme_name(s).c_str(), stats::quantile(fcts, 0.5),
                stats::quantile(fcts, 0.9), stats::quantile(fcts, 0.99),
                stats::quantile(fcts, 1.0), w.rounds_completed());
  return buf;
}

void llm_part(int workers) {
  std::printf("\n(c)(d) LLM alltoall FCT CDF, %d workers, 512KB flows\n",
              workers);
  std::printf("%-10s %-10s %-10s %-10s %-10s %-10s\n", "scheme", "p50_ms",
              "p90_ms", "p99_ms", "max_ms", "rounds");
  const auto rows = exec::parallel_map(
      kSchemes, [workers](Scheme s) { return llm_row(s, workers); },
      g_cli.jobs);
  for (const std::string& row : rows) std::printf("%s\n", row.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_bench_cli(argc, argv, kTiny | kJobs | kPerfOut);
  const WallTimer wall;
  print_header("Fig. 7: FCT of 5 tuning schemes (FB_Hadoop + LLM alltoall)",
               scaling_note(paper_fabric(Scheme::kParaleon, 3),
                            "400 ms, flows scaled (paper: 128 hosts @100G "
                            "NS3, seconds-long runs)"));
  fb_hadoop_part();
  llm_part(8);
  llm_part(16);
  std::printf(
      "\nPaper Fig. 7 shape: PARALEON's avg FCT beats the baselines by\n"
      ">=3.8%% on mice and up to 61.4%% on elephants (a,b), and its tail\n"
      "FCT at both alltoall scales improves up to 54.5%% (c,d). Expect\n"
      "PARALEON ahead of Default/ACC/DCQCN+ here; the scaled Expert preset\n"
      "is a strong static baseline at this fabric scale (see\n"
      "EXPERIMENTS.md).\n");
  TrendReport trend("fig7_fct");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(g_cli.perf_out, trend);
  return 0;
}
