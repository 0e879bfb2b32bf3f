// Component microbenchmarks (google-benchmark): the building blocks whose
// costs underlie Table IV — sketch insert/query, control-plane flow-state
// update, KL divergence, SA mutation, and the event engine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/flow_state.hpp"
#include "core/fsd.hpp"
#include "core/param_space.hpp"
#include "sim/simulator.hpp"
#include "sketch/elastic_sketch.hpp"

namespace paraleon {
namespace {

void BM_ElasticSketchInsert(benchmark::State& state) {
  sketch::ElasticSketch es{sketch::ElasticSketchConfig{}};
  Rng rng(1);
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t f = 0;
  for (auto _ : state) {
    es.insert(f, 1000);
    f = (f + 0x9E3779B9u) % flows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticSketchInsert)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ElasticSketchQuery(benchmark::State& state) {
  sketch::ElasticSketch es{sketch::ElasticSketchConfig{}};
  for (std::uint64_t f = 0; f < 1000; ++f) es.insert(f, 1000);
  std::uint64_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(es.query(f));
    f = (f + 1) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticSketchQuery);

void BM_ElasticSketchHeavyDrain(benchmark::State& state) {
  sketch::ElasticSketch es{sketch::ElasticSketchConfig{}};
  for (std::uint64_t f = 0; f < 2000; ++f) es.insert(f, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(es.heavy_flows());
  }
}
BENCHMARK(BM_ElasticSketchHeavyDrain);

void BM_TernaryAdvance(benchmark::State& state) {
  core::TernaryClassifier c;
  std::vector<sketch::HeavyRecord> recs;
  for (std::int64_t f = 0; f < state.range(0); ++f) {
    recs.push_back({static_cast<std::uint64_t>(f), 100 * 1024});
  }
  for (auto _ : state) {
    c.advance(recs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TernaryAdvance)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KlDivergence(benchmark::State& state) {
  core::FsdBuilder a;
  core::FsdBuilder b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    a.add_flow(static_cast<std::int64_t>(rng.uniform(100, 1e7)), 0.5);
    b.add_flow(static_cast<std::int64_t>(rng.uniform(100, 1e7)), 0.5);
  }
  const core::Fsd fa = a.build();
  const core::Fsd fb = b.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kl_divergence(fa, fb));
  }
}
BENCHMARK(BM_KlDivergence);

void BM_SaGuidedMutation(benchmark::State& state) {
  const core::ParamSpace space =
      core::ParamSpace::standard(gbps(100), 12ll << 20);
  Rng rng(5);
  dcqcn::DcqcnParams p = dcqcn::default_params();
  for (auto _ : state) {
    p = space.mutate_guided(p, 0.7, rng);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_SaGuidedMutation);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at((i * 7919) % 100000, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Same loop with the attribution engine enabled (the flight recorder's
// steady-state configuration): the engine only acts at PFC latch / pause
// boundaries, so pure event dispatch must stay inside the <3% gate.
void BM_EventQueueScheduleRunAttribution(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.obs().attribution().set_enabled(true);
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at((i * 7919) % 100000, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueScheduleRunAttribution);

// Same loop with the PerfMonitor enabled: the telemetry this PR adds to
// the engine hot path. Its counters are a few integer ops per event, so
// dispatch must stay inside the <2% overhead gate (BENCH_micro.json's
// event_loop_perf_overhead_pct metric, measured below in main).
void BM_EventQueueScheduleRunPerfCounters(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.obs().perf().set_enabled(true);
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at((i * 7919) % 100000, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueScheduleRunPerfCounters);

/// One schedule+run pass over the overhead-measurement workload; returns
/// wall seconds (schedule hooks included — they are hot path too).
double timed_event_loop(bool perf_on, std::uint64_t* events_out) {
  sim::Simulator sim;
  sim.obs().perf().set_enabled(perf_on);
  int sink = 0;
  const paraleon::bench::WallTimer t;
  for (int i = 0; i < 200000; ++i) {
    sim.schedule_at((i * 7919) % 1000000, [&sink] { ++sink; });
  }
  sim.run();
  const double s = t.seconds();
  benchmark::DoNotOptimize(sink);
  if (events_out != nullptr) *events_out = sim.events_executed();
  return s;
}

/// The bench-trend artifact: min-of-N wall times for the event loop with
/// the PerfMonitor off vs on, the overhead between them, and the
/// deterministic event count. Min-of-N because the trend gate wants the
/// machine's best case, not its scheduler noise.
void write_micro_trend(const std::string& perf_out) {
  constexpr int kReps = 15;
  double off_s = 1e9, on_s = 1e9;
  double paired_pct[kReps];
  std::uint64_t events = 0;
  for (int i = 0; i < kReps; ++i) {
    const double off_i = timed_event_loop(false, nullptr);
    const double on_i = timed_event_loop(true, &events);
    off_s = std::min(off_s, off_i);
    on_s = std::min(on_s, on_i);
    paired_pct[i] = (on_i - off_i) / off_i * 100.0;
  }
  // The overhead gate wants the hook cost, not the difference of two
  // minima taken at different moments of machine drift. Adjacent off/on
  // runs share their drift, so their paired ratio cancels it; the median
  // across reps rejects the scheduler-noise outliers.
  std::sort(paired_pct, paired_pct + kReps);
  const double overhead_pct = paired_pct[kReps / 2];
  paraleon::bench::TrendReport trend("micro_components");
  trend.add("event_loop_events", static_cast<double>(events), "events");
  // The headline engine-speed metric (gated higher-better in
  // BENCH_micro.json): raw event throughput with all telemetry off, the
  // configuration the calendar-queue + pooled-closure overhaul is judged
  // against.
  trend.add("events_per_sec", static_cast<double>(events) / off_s,
            "events/s");
  trend.add("event_loop_baseline_eps", static_cast<double>(events) / off_s,
            "events/s");
  trend.add("event_loop_perf_eps", static_cast<double>(events) / on_s,
            "events/s");
  trend.add("event_loop_perf_overhead_pct", overhead_pct, "%");
  std::printf("# perf: event loop %.0f events/s off, %.0f events/s on, "
              "overhead %.2f%%\n",
              static_cast<double>(events) / off_s,
              static_cast<double>(events) / on_s, overhead_pct);
  paraleon::bench::write_trend(perf_out, trend);
}

}  // namespace
}  // namespace paraleon

// Custom main instead of BENCHMARK_MAIN(): --tiny and --perf-out are
// taken out of argv before google-benchmark sees it, and the header carries
// the same machine-parseable scaling note as the experiment benches.
// --tiny narrows to an event-engine + sketch smoke subset for CI; the
// --benchmark_* flags pass through, and any other argument exits 2.
int main(int argc, char** argv) {
  namespace bench = paraleon::bench;
  constexpr unsigned kHonoured = bench::kTiny | bench::kPerfOut;
  bench::BenchCli cli;
  argc = bench::take_bench_flags(cli, kHonoured, argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string filter =
      "--benchmark_filter=BM_EventQueueScheduleRun|BM_ElasticSketchInsert/"
      "1000";
  if (cli.tiny) args.push_back(filter.data());
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) {
    std::fprintf(stderr, "%s [--benchmark_*]\n",
                 bench::bench_usage(argv[0], kHonoured).c_str());
    return 2;
  }

  // No fabric is simulated here; the note documents the reference fabric
  // the component costs feed into, the one scenarios/fig8_influx.json runs.
  const int rc = bench::run_with_scenario(
      "fig8_influx.json", false, [](const paraleon::scenario::Scenario& sc) {
        std::printf("# bench_micro_components: Table IV component costs\n");
        std::printf("# %s\n",
                    bench::scaling_note(
                        paraleon::scenario::to_experiment_config(sc),
                        "component micros only; fabric shown for reference")
                        .c_str());
        return 0;
      });
  if (rc != 0) return rc;

  benchmark::RunSpecifiedBenchmarks();
  // The bench-trend artifact is measured outside google-benchmark so the
  // off/on comparison shares one workload and one min-of-N policy.
  if (!cli.perf_out.empty()) paraleon::write_micro_trend(cli.perf_out);
  benchmark::Shutdown();
  return 0;
}
