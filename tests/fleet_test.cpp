// The fleet observatory: PoolTelemetry accounting through ThreadPool /
// JobSet, all-failure recording, straggler flagging, and ShadowFleet
// speculation accounting (K=1 wastes nothing, K>1 prices the surplus).
// The grid document and timeline built from this telemetry are tested in
// scenario_grid_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/shadow_fleet.hpp"
#include "exec/thread_pool.hpp"
#include "obs/fleet.hpp"
#include "obs/perf.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep_report.hpp"

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
    tm.on_job_end(i % 2, job);
  }
  tm.detach();
  EXPECT_EQ(tm.jobs_submitted(), 6u);
  EXPECT_EQ(tm.jobs_completed(), 6u);
  const auto workers = tm.worker_stats();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].jobs, 3u);
  EXPECT_EQ(workers[1].jobs, 3u);
  const auto spans = tm.spans();
  ASSERT_EQ(spans.size(), 6u);
  std::uint64_t waits = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].job, i);
    EXPECT_EQ(spans[i].worker, static_cast<int>(i % 2));
    EXPECT_LE(spans[i].submit_ns, spans[i].start_ns);
    EXPECT_LE(spans[i].start_ns, spans[i].end_ns);
  }
  for (const std::uint64_t c : tm.queue_wait_log2_us()) waits += c;
  EXPECT_EQ(waits, 6u);  // one histogram entry per started job
  EXPECT_GE(tm.wall_seconds(), 0.0);
}

TEST(PoolTelemetry, BucketingMatchesPerfMonitor) {
  const std::vector<std::int64_t> values{
      0, 1, 2, 3, 1000, std::int64_t{1} << 20, std::int64_t{1} << 50};
  for (const std::int64_t v : values) {
    EXPECT_EQ(obs::PoolTelemetry::bucket_log2(v),
              obs::PerfMonitor::bucket_log2(v))
        << v;
  }
}

TEST(PoolTelemetry, SequentialPoolsAccumulateIntoOneEpoch) {
  // ShadowFleet builds one pool per batch; a shared telemetry must keep
  // counting across attach/detach cycles with job ids that never reset.
  obs::PoolTelemetry tm;
  for (int batch = 0; batch < 3; ++batch) {
    exec::ThreadPool pool(2, &tm);
    exec::JobSet<int> set(&pool);
    for (int i = 0; i < 4; ++i) set.submit([i] { return i; });
    set.wait_all();
  }
  EXPECT_EQ(tm.jobs_submitted(), 12u);
  EXPECT_EQ(tm.jobs_completed(), 12u);
  const auto spans = tm.spans();
  ASSERT_EQ(spans.size(), 12u);
  EXPECT_EQ(spans.back().job, 11u);
  EXPECT_GT(tm.wall_seconds(), 0.0);
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
  double busy = 0.0, idle = 0.0;
  for (const auto& w : tm.worker_stats()) {
    busy += static_cast<double>(w.busy_ns) / 1e9;
    idle += static_cast<double>(w.idle_ns) / 1e9;
  }
  EXPECT_GT(busy, 0.0);
  // Each worker's busy+idle is accounted within [attach, detach], so the
  // total cannot exceed workers x window (small slack for the final
  // clock reads landing after the join).
  EXPECT_LE(busy + idle, 2.0 * tm.wall_seconds() + 0.05);
  // An attached worker is always busy or idle, so the two also cover most
  // of the window (half, leaving room for the attach and join edges).
  EXPECT_GE(busy + idle, 0.5 * 2.0 * tm.wall_seconds() - 0.05);
}

// ---- JobSet failure recording ----

TEST(JobSet, RecordsEveryFailureNotJustTheFirst) {
  obs::PoolTelemetry tm;
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
  EXPECT_EQ(set.failure_count(), 3u);
  const auto failures = set.failures();
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[0].message, "boom 1");
  EXPECT_EQ(failures[1].message, "boom 2");
  EXPECT_EQ(failures[2].message, "boom 3");
  // Forwarded into the pool telemetry.
  EXPECT_EQ(tm.failure_count(), 3u);
  EXPECT_EQ(tm.failures().size(), 3u);
}

TEST(JobSet, RetainsOnlyFirstNMessagesButCountsAll) {
  exec::ThreadPool pool(2);
  exec::JobSet<int> set(&pool);
  const std::size_t total = obs::PoolTelemetry::kMaxFailureMessages + 5;
  for (std::size_t i = 0; i < total; ++i) {
    set.submit([i]() -> int {
      throw std::runtime_error("fail " + std::to_string(i));
    });
  }
  EXPECT_THROW(set.wait_all(), std::runtime_error);
  EXPECT_EQ(set.failure_count(), total);
  EXPECT_EQ(set.failures().size(), obs::PoolTelemetry::kMaxFailureMessages);
  EXPECT_EQ(set.failures()[0].message, "fail 0");
}

TEST(JobSet, FailureRecordsAccumulateAcrossBatches) {
  exec::ThreadPool pool(1);
  exec::JobSet<int> set(&pool);
  set.submit([]() -> int { throw std::runtime_error("once"); });
  EXPECT_THROW(set.wait_all(), std::runtime_error);
  EXPECT_EQ(set.failure_count(), 1u);
  // A clean follow-up batch succeeds; the record of the earlier failure
  // survives in the pool telemetry.
  set.submit([] { return 7; });
  EXPECT_EQ(set.wait_all(), std::vector<int>{7});
  EXPECT_EQ(set.failure_count(), 1u);
  ASSERT_EQ(set.failures().size(), 1u);
  EXPECT_EQ(set.failures()[0].message, "once");
}

// ---- straggler flagging on synthetic spans ----

obs::JobSpan span(std::uint64_t job, std::int64_t start_us,
                  std::int64_t dur_us) {
  obs::JobSpan s;
  s.job = job;
  s.worker = 0;
  s.submit_ns = start_us * 1000;
  s.start_ns = start_us * 1000;
  s.end_ns = (start_us + dur_us) * 1000;
  return s;
}

TEST(FindStragglers, FlagsTheOutlierJob) {
  std::vector<obs::JobSpan> spans;
  for (std::uint64_t i = 0; i < 9; ++i) spans.push_back(span(i, 0, 100));
  spans.push_back(span(9, 0, 1000));  // 10x the pack
  const auto out = runner::find_stragglers(spans, 2.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].job, 9u);
  EXPECT_GT(out[0].z, 2.0);
  EXPECT_DOUBLE_EQ(out[0].seconds, 1000e-6);
}

TEST(FindStragglers, UniformFleetHasNoStragglers) {
  std::vector<obs::JobSpan> spans;
  for (std::uint64_t i = 0; i < 8; ++i) spans.push_back(span(i, 0, 100));
  EXPECT_TRUE(runner::find_stragglers(spans, 2.0).empty());
}

TEST(FindStragglers, NeedsAtLeastTwoCompletedSpans) {
  EXPECT_TRUE(runner::find_stragglers({span(0, 0, 100)}, 0.0).empty());
  // Incomplete spans (never started / never finished) are skipped.
  obs::JobSpan queued;
  queued.job = 1;
  EXPECT_TRUE(
      runner::find_stragglers({span(0, 0, 100), queued}, 0.0).empty());
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
  const obs::SpeculationStats& sp = res.speculation;
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
  const obs::SpeculationStats& sp = res.speculation;
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
