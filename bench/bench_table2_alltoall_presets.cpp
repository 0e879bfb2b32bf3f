// Table II reproduction: NCCL-Tests alltoall algorithmic bandwidth under
// the Default vs Expert DCQCN settings, swept over message sizes.
//
// Paper: 128x128 alltoall on 400G H100s, sizes 512MB..8192MB, algbw GB/s.
// Here: 16x16 alltoall on the scaled 10G fabric, sizes scaled 1:512.
// The reproduced *shape*: Expert >> Default, and the gap persists (or
// widens) with message size.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

double algbw_for(Scheme scheme, std::int64_t per_pair_bytes) {
  ExperimentConfig cfg = paper_fabric(scheme, 42);
  cfg.duration = seconds(5);  // bounded by max_rounds below
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 16; ++i) a2a.workers.push_back(i * 4);  // spread racks
  a2a.flow_size = per_pair_bytes;
  a2a.off_period = milliseconds(1);
  a2a.max_rounds = 2;
  auto& w = exp.add_alltoall(a2a);
  exp.run();
  if (w.rounds_completed() == 0) return 0.0;
  double sum = 0.0;
  for (int r = 0; r < w.rounds_completed(); ++r) sum += w.round_algbw_gbs(r);
  return sum / w.rounds_completed();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv, kPerfOut);
  const WallTimer wall;
  print_header(
      "Table II: alltoall out-of-place algbw (GB/s), Default vs Expert",
      scaling_note(paper_fabric(Scheme::kDefaultStatic, 42),
                   "16x16, 1..16 MB total per pair pairwise-scaled "
                   "(paper: 128x128 on 400G, 512..8192 MB)"));
  const std::int64_t sizes_kb[] = {64, 128, 256, 512, 1024};
  std::printf("%-12s", "size_per_pair");
  for (auto s : sizes_kb) std::printf("%8lldKB", static_cast<long long>(s));
  std::printf("\n");
  for (Scheme scheme : {Scheme::kDefaultStatic, Scheme::kExpertStatic}) {
    std::printf("%-12s", scheme_name(scheme).c_str());
    for (auto s : sizes_kb) {
      std::printf("%10.3f", algbw_for(scheme, s * 1024));
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper Table II shape: Expert exceeds Default at every size, by\n"
      "2-6x (e.g. 25.69 vs 6.37 GB/s at 512MB). Expect the same ordering\n"
      "with a growing absolute gap here.\n");
  TrendReport trend("table2_alltoall_presets");
  trend.add("wall_seconds", wall.seconds(), "s");
  write_trend(cli.perf_out, trend);
  return 0;
}
