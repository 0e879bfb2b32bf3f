// The fleet observatory: PoolTelemetry's spans and derived per-worker
// stats through ThreadPool / JobSet, failure counting, and ShadowFleet
// speculation accounting (K=1 wastes nothing, K>1 prices the surplus).
// The grid document and timeline built from this telemetry are tested in
// scenario_grid_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel_map.hpp"
#include "exec/shadow_fleet.hpp"
#include "exec/thread_pool.hpp"
#include "obs/fleet.hpp"
#include "runner/experiment.hpp"

namespace paraleon {
namespace {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

// ---- PoolTelemetry accounting ----

TEST(PoolTelemetry, CountsJobsPerWorkerAndSpans) {
  obs::PoolTelemetry tm;
  tm.attach(2);
  EXPECT_EQ(tm.workers(), 2);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t job = tm.on_submit();
    EXPECT_EQ(job, static_cast<std::uint64_t>(i));
    tm.on_job_start(i % 2, job);
    tm.on_job_end(job);
  }
  tm.detach();
  const auto workers = tm.worker_stats();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].jobs, 3u);
  EXPECT_EQ(workers[1].jobs, 3u);
  const auto spans = tm.spans();
  ASSERT_EQ(spans.size(), 6u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].job, i);
    EXPECT_EQ(spans[i].worker, static_cast<int>(i % 2));
    EXPECT_LE(spans[i].submit_ns, spans[i].start_ns);
    EXPECT_LE(spans[i].start_ns, spans[i].end_ns);
  }
  EXPECT_GE(tm.wall_seconds(), 0.0);
}

TEST(PoolTelemetry, WorkerJobsSumToSpanCount) {
  obs::PoolTelemetry tm;
  std::vector<int> items(10);
  for (int i = 0; i < 10; ++i) items[static_cast<std::size_t>(i)] = i;
  const auto out =
      exec::parallel_map(items, [](int i) { return 2 * i; }, 3, &tm);
  ASSERT_EQ(out.size(), 10u);
  const auto workers = tm.worker_stats();
  ASSERT_EQ(workers.size(), 3u);
  std::uint64_t jobs = 0;
  for (const auto& w : workers) jobs += w.jobs;
  EXPECT_EQ(jobs, tm.spans().size());
  EXPECT_EQ(jobs, 10u);
  for (const auto& sp : tm.spans()) {
    EXPECT_TRUE(sp.worker >= 0 && sp.worker < 3) << "job " << sp.job;
  }
}

TEST(PoolTelemetry, BusyPlusIdleStaysInsideWallWindow) {
  obs::PoolTelemetry tm;
  {
    exec::ThreadPool pool(2, &tm);
    exec::JobSet<int> set(&pool);
    for (int i = 0; i < 4; ++i) {
      set.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 0;
      });
    }
    set.wait_all();
  }
  const double window_ns = tm.wall_seconds() * 1e9;
  EXPECT_GT(window_ns, 0.0);
  std::int64_t busy = 0;
  for (const auto& w : tm.worker_stats()) {
    // Every job span lies inside the pool's attach -> detach window, and
    // a worker is idle whenever it is not inside one.
    EXPECT_GE(w.busy_ns, 0);
    EXPECT_GE(w.idle_ns, 0);
    EXPECT_NEAR(static_cast<double>(w.busy_ns + w.idle_ns), window_ns, 1.0);
    busy += w.busy_ns;
  }
  EXPECT_GE(busy, 4 * 2'000'000);  // four 2 ms sleeps
}

// ---- JobSet failure counting ----

TEST(JobSet, RecordsEveryFailureNotJustTheFirst) {
  obs::PoolTelemetry tm;
  {
    exec::ThreadPool pool(2, &tm);
    exec::JobSet<int> set(&pool);
    set.submit([] { return 0; });
    set.submit([]() -> int { throw std::runtime_error("boom 1"); });
    set.submit([]() -> int { throw std::logic_error("boom 2"); });
    set.submit([]() -> int { throw std::runtime_error("boom 3"); });
    try {
      set.wait_all();
      FAIL() << "wait_all() swallowed the job exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 1");  // first submitted still wins
    }
  }
  // Only the first propagates, but the telemetry counts all three.
  EXPECT_EQ(tm.failure_count(), 3u);
}

TEST(JobSet, FailureRecordsAccumulateAcrossBatches) {
  obs::PoolTelemetry tm;
  exec::ThreadPool pool(1, &tm);
  exec::JobSet<int> set(&pool);
  set.submit([]() -> int { throw std::runtime_error("once"); });
  EXPECT_THROW(set.wait_all(), std::runtime_error);
  EXPECT_EQ(tm.failure_count(), 1u);
  // A clean follow-up batch succeeds and leaves the count alone.
  set.submit([] { return 7; });
  EXPECT_EQ(set.wait_all(), std::vector<int>{7});
  EXPECT_EQ(tm.failure_count(), 1u);
  set.submit([]() -> int { throw std::runtime_error("twice"); });
  set.submit([]() -> int { throw std::runtime_error("thrice"); });
  EXPECT_THROW(set.wait_all(), std::runtime_error);
  EXPECT_EQ(tm.failure_count(), 3u);
}

// ---- ShadowFleet speculation accounting ----

ExperimentConfig tiny_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 2;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = Scheme::kParaleon;
  cfg.duration = milliseconds(8);
  cfg.seed = seed;
  return cfg;
}

exec::ShadowWindow tiny_window() {
  exec::ShadowWindow w;
  w.base = tiny_config(77);
  w.base.scheme = Scheme::kCustomStatic;
  w.base.duration = milliseconds(4);
  w.setup = [](Experiment& exp) {
    workload::PoissonConfig wl;
    wl.hosts = exp.all_hosts();
    wl.sizes = &workload::solar_rpc_distribution();
    wl.load = 0.3;
    wl.stop = milliseconds(4);
    wl.seed = 77;
    exp.add_poisson(wl);
  };
  w.measure_from = milliseconds(1);
  return w;
}

exec::ShadowFleetResult tune_with_k(int k) {
  exec::ShadowFleetConfig cfg;
  cfg.sa.total_iter_num = 2;
  cfg.sa.cooling_rate = 0.3;  // two temperatures -> 4 accepted iterations
  cfg.fleet_size = k;
  cfg.seed = 5;
  return exec::ShadowFleet(cfg).tune(
      tiny_window(), dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                                 gbps(100), gbps(10)));
}

TEST(ShadowFleetSpeculation, SerialChainWastesNothing) {
  const auto res = tune_with_k(1);
  const exec::SpeculationStats& sp = res.speculation;
  EXPECT_EQ(sp.proposed, 4);
  EXPECT_EQ(sp.evaluated, 5);  // seed evaluation + every proposal
  EXPECT_EQ(sp.wasted, 0);
  EXPECT_EQ(sp.events_wasted, 0u);
  EXPECT_GT(sp.events_total, 0u);
  EXPECT_GE(sp.evaluated - 1, sp.accepted);
}

TEST(ShadowFleetSpeculation, SpeculativeBatchesPriceTheSurplus) {
  // 4-iteration schedule in batches of 3: the second batch finishes the
  // schedule after consuming one candidate, discarding two.
  const auto res = tune_with_k(3);
  const exec::SpeculationStats& sp = res.speculation;
  EXPECT_EQ(sp.proposed, 6);
  EXPECT_EQ(sp.evaluated, 7);
  EXPECT_EQ(sp.wasted, 2);
  EXPECT_GT(sp.events_wasted, 0u);
  EXPECT_LT(sp.events_wasted, sp.events_total);
  EXPECT_EQ(res.evaluations, static_cast<int>(sp.evaluated));
}

TEST(ShadowFleetSpeculation, StatsIndependentOfWorkerCount) {
  exec::ShadowFleetConfig cfg;
  cfg.sa.total_iter_num = 2;
  cfg.sa.cooling_rate = 0.3;
  cfg.fleet_size = 4;
  cfg.seed = 5;
  const auto start = dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                                 gbps(100), gbps(10));
  cfg.jobs = 1;
  const auto serial = exec::ShadowFleet(cfg).tune(tiny_window(), start);
  cfg.jobs = 4;
  const auto parallel = exec::ShadowFleet(cfg).tune(tiny_window(), start);
  EXPECT_EQ(serial.speculation.proposed, parallel.speculation.proposed);
  EXPECT_EQ(serial.speculation.evaluated, parallel.speculation.evaluated);
  EXPECT_EQ(serial.speculation.accepted, parallel.speculation.accepted);
  EXPECT_EQ(serial.speculation.wasted, parallel.speculation.wasted);
  EXPECT_EQ(serial.speculation.events_total,
            parallel.speculation.events_total);
  EXPECT_EQ(serial.speculation.events_wasted,
            parallel.speculation.events_wasted);
}

}  // namespace
}  // namespace paraleon
