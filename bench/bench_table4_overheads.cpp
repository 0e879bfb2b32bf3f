// Table IV reproduction: PARALEON system overheads.
//
// Paper reports: switch control-plane CPU 20.3%, controller CPU 3.2%,
// switch control-plane memory 9.5 MB, and per-interval data transfers of
// 520 B (switch->controller), 12 B (RNIC->controller), 76 B
// (controller->devices). We measure our implementation's equivalents on
// the live tuning run of scenarios/table4_overheads.json.
#include <cstdio>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

/// What the table reads from the finished run.
struct Overheads {
  core::ParaleonController::Overheads counters;
  std::uint64_t episodes = 0;
};

int run(const scenario::Scenario& sc) {
  const ExperimentConfig cfg = scenario::to_experiment_config(sc);
  print_header("Table IV: PARALEON system overheads",
               scaling_note(cfg, "continuous tuning (paper values from a "
                                 "32-node 400G testbed)"));
  const Overheads run =
      harvest_grid(sc, /*jobs=*/1, [](const auto&, Experiment& exp,
                                      const auto&) {
        return Overheads{exp.controller()->overheads(),
                         exp.controller()->episodes()};
      }).front();
  const auto& oh = run.counters;
  const double mi_count = static_cast<double>(oh.mi_ticks);
  const double tors = cfg.clos.n_tor;
  const double hosts = cfg.clos.n_tor * cfg.clos.hosts_per_tor;

  std::printf("%-34s %-18s %-18s\n", "overhead", "this repo", "paper");
  // CPU is reported as compute time per monitor interval: the paper's
  // percentages are of a testbed controller server at a 30 ms MI; ours is
  // per 1 ms tick of this process (the comparison is per-tick work, not
  // absolute utilisation — fabric sizes and MIs differ).
  std::printf("%-34s %-18s %-18s\n", "controller CPU per MI tick",
              (runner::fmt(1e3 * oh.controller_cpu_seconds / mi_count, 3) +
               " ms")
                  .c_str(),
              "3.2% util");
  // Switch control plane: per-agent CPU + memory, measured on a
  // standalone classifier probe over 10k flows (the classifier is the
  // dominant term of an agent).
  core::TernaryClassifier probe;
  std::vector<sketch::HeavyRecord> recs;
  for (std::uint64_t f = 0; f < 10000; ++f) recs.push_back({f, 2048});
  const WallTimer probe_wall;
  probe.advance(recs);
  const double agent_cpu = probe_wall.seconds();
  std::printf("%-34s %-18s %-18s\n",
              "switch ctrl-plane CPU /10k flows",
              (runner::fmt(1e3 * agent_cpu, 3) + " ms").c_str(),
              "20.3% util");
  std::printf("%-34s %-18s %-18s\n", "switch ctrl-plane memory",
              (runner::fmt(static_cast<double>(probe.memory_bytes()) / 1e6,
                           2) +
               " MB")
                  .c_str(),
              "9.5 MB");
  sketch::ElasticSketch es{sketch::ElasticSketchConfig{}};
  std::printf("%-34s %-18s %-18s\n", "data-plane sketch SRAM",
              (runner::fmt(static_cast<double>(es.memory_bytes()) / 1e6, 2) +
               " MB")
                  .c_str(),
              "(Elastic Sketch)");
  std::printf("%-34s %-18s %-18s\n", "switch->controller per MI",
              (runner::fmt(static_cast<double>(oh.switch_to_controller_bytes) /
                               (mi_count * tors),
                           0) +
               " B")
                  .c_str(),
              "520 B");
  const double tuning_mi =
      std::max(1.0, static_cast<double>(oh.tuning_mi_ticks));
  std::printf("%-34s %-18s %-18s\n", "RNIC->controller per MI (tuning)",
              (runner::fmt(static_cast<double>(oh.rnic_to_controller_bytes) /
                               (tuning_mi * hosts),
                           0) +
               " B")
                  .c_str(),
              "12 B");
  const double dispatches =
      std::max(1.0, static_cast<double>(oh.device_dispatches));
  std::printf("%-34s %-18s %-18s\n", "controller->device per dispatch",
              (runner::fmt(static_cast<double>(oh.controller_to_devices_bytes) /
                               dispatches,
                           0) +
               " B")
                  .c_str(),
              "76 B");
  std::printf("\nTotals over the %.0f ms run: switch->ctrl %lld B, "
              "rnic->ctrl %lld B, ctrl->devices %lld B, episodes %llu\n",
              sc.duration_ms,
              static_cast<long long>(oh.switch_to_controller_bytes),
              static_cast<long long>(oh.rnic_to_controller_bytes),
              static_cast<long long>(oh.controller_to_devices_bytes),
              static_cast<unsigned long long>(run.episodes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_cli(argc, argv, 0);
  return run_with_scenario("table4_overheads.json", false, run);
}
