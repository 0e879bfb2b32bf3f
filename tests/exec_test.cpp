// The parallel execution subsystem: pool/JobSet ordering and exception
// semantics, the parallel_map serial-equivalence contract, per-job
// Experiment isolation and the shadow fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel_map.hpp"
#include "exec/shadow_fleet.hpp"
#include "exec/thread_pool.hpp"
#include "runner/experiment.hpp"

namespace paraleon {
namespace {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

// ---- ThreadPool / JobSet ----

TEST(ThreadPool, ResultsComeBackInSubmissionOrder) {
  exec::ThreadPool pool(4);
  exec::JobSet<int> set(&pool);
  // Earlier jobs sleep longer, so completion order inverts submission
  // order — the results must not.
  for (int i = 0; i < 8; ++i) {
    set.submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
      return i;
    });
  }
  const std::vector<int> results = set.wait_all();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ZeroJobsYieldsEmptyResult) {
  exec::ThreadPool pool(2);
  exec::JobSet<int> set(&pool);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.wait_all().empty());
}

TEST(ThreadPool, SingleWorkerRunsEveryJob) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  exec::JobSet<int> set(&pool);
  for (int i = 0; i < 16; ++i) set.submit([i] { return i * i; });
  const auto results = set.wait_all();
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, WorkerCountClampedToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
}

TEST(ThreadPool, ManyMoreJobsThanWorkersAllComplete) {
  exec::ThreadPool pool(2);
  exec::JobSet<int> set(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    set.submit([i, &ran] {
      ran.fetch_add(1);
      return i;
    });
  }
  const auto results = set.wait_all();
  EXPECT_EQ(results.size(), 100u);
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, FirstSubmittedExceptionPropagates) {
  exec::ThreadPool pool(4);
  exec::JobSet<int> set(&pool);
  set.submit([] { return 1; });
  set.submit([]() -> int { throw std::runtime_error("job 1 failed"); });
  set.submit([]() -> int { throw std::logic_error("job 2 failed"); });
  set.submit([] { return 3; });
  try {
    set.wait_all();
    FAIL() << "wait_all() swallowed the job exception";
  } catch (const std::runtime_error& e) {
    // Submission order decides which failure wins, not completion order.
    EXPECT_STREQ(e.what(), "job 1 failed");
  }
}

TEST(ThreadPool, JobSetIsReusableAfterWaitAll) {
  exec::ThreadPool pool(2);
  exec::JobSet<int> set(&pool);
  set.submit([] { return 1; });
  EXPECT_EQ(set.wait_all(), std::vector<int>{1});
  set.submit([] { return 2; });
  EXPECT_EQ(set.wait_all(), std::vector<int>{2});
}

// ---- parallel_map ----

TEST(ParallelMap, SerialAndParallelProduceIdenticalOutput) {
  std::vector<int> items;
  for (int i = 0; i < 50; ++i) items.push_back(i);
  const auto fn = [](int x) { return x * 3 + 1; };
  const auto serial = exec::parallel_map(items, fn, 1);
  const auto parallel = exec::parallel_map(items, fn, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMap, JobsZeroMeansHardware) {
  EXPECT_GE(exec::ThreadPool::hardware_workers(), 1);
  const std::vector<int> items{1, 2, 3};
  const auto out = exec::parallel_map(items, [](int x) { return x; }, 0);
  EXPECT_EQ(out, items);
}

TEST(ParallelMap, EmptyInputEmptyOutput) {
  const std::vector<int> items;
  EXPECT_TRUE(exec::parallel_map(items, [](int x) { return x; }, 4).empty());
}

TEST(ParallelMap, EffectiveJobsNeverExceedsItems) {
  EXPECT_EQ(exec::effective_jobs(8, 3), 3);
  EXPECT_EQ(exec::effective_jobs(2, 10), 2);
  EXPECT_EQ(exec::effective_jobs(1, 0), 1);
}

// ---- Experiment isolation: the invariant ParallelSweep builds on ----

ExperimentConfig tiny_config(Scheme scheme, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 2;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = scheme;
  cfg.duration = milliseconds(8);
  cfg.seed = seed;
  return cfg;
}

std::uint64_t run_one(Scheme scheme, std::uint64_t seed) {
  Experiment exp(tiny_config(scheme, seed));
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::solar_rpc_distribution();
  w.load = 0.3;
  w.stop = milliseconds(6);
  w.seed = seed;
  exp.add_poisson(w);
  exp.run();
  return runner::run_digest(exp);
}

TEST(ExecIsolation, TwoExperimentsMayRunOnTwoThreads) {
  // Serial reference digests first, then the same two runs concurrently:
  // if any hidden shared mutable state existed between Experiment
  // instances, the concurrent digests (or TSan in CI) would catch it.
  const std::uint64_t ref_a = run_one(Scheme::kParaleon, 11);
  const std::uint64_t ref_b = run_one(Scheme::kParaleon, 12);
  std::uint64_t got_a = 0, got_b = 0;
  std::thread ta([&got_a] { got_a = run_one(Scheme::kParaleon, 11); });
  std::thread tb([&got_b] { got_b = run_one(Scheme::kParaleon, 12); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, ref_a);
  EXPECT_EQ(got_b, ref_b);
  EXPECT_NE(got_a, got_b);
}

// ---- ShadowFleet ----

exec::ShadowWindow tiny_window() {
  exec::ShadowWindow w;
  w.base = tiny_config(Scheme::kCustomStatic, 77);
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

core::SaConfig tiny_sa() {
  core::SaConfig sa;
  sa.total_iter_num = 2;
  sa.cooling_rate = 0.3;  // 90 -> 27 -> 8.1: two temperatures, 4 iters
  return sa;
}

TEST(ShadowFleet, EvaluateIsDeterministic) {
  const exec::ShadowWindow w = tiny_window();
  const dcqcn::DcqcnParams p =
      dcqcn::scaled_for_line_rate(dcqcn::default_params(), gbps(100), gbps(10));
  const double a = exec::ShadowFleet::evaluate(w, p);
  const double b = exec::ShadowFleet::evaluate(w, p);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
  EXPECT_LE(a, 100.0);
}

TEST(ShadowFleet, FleetOutcomeIndependentOfWorkerCount) {
  // K = 4 with 1 worker vs 4 workers: the tuning outcome and the whole
  // episode log must be a pure function of (window, config), never of
  // scheduling.
  exec::ShadowFleetConfig cfg;
  cfg.sa = tiny_sa();
  cfg.fleet_size = 4;
  cfg.seed = 5;
  const dcqcn::DcqcnParams start =
      dcqcn::scaled_for_line_rate(dcqcn::default_params(), gbps(100), gbps(10));
  cfg.jobs = 1;
  const auto serial = exec::ShadowFleet(cfg).tune(tiny_window(), start);
  cfg.jobs = 4;
  const auto parallel = exec::ShadowFleet(cfg).tune(tiny_window(), start);
  EXPECT_DOUBLE_EQ(serial.best_utility, parallel.best_utility);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.batches, parallel.batches);
  EXPECT_EQ(serial.episodes.to_json().dump(),
            parallel.episodes.to_json().dump());
}

TEST(ShadowFleet, CountsSpeculativeEvaluations) {
  exec::ShadowFleetConfig cfg;
  cfg.sa = tiny_sa();  // schedule ends after 4 accepted iterations
  cfg.fleet_size = 3;  // 4 iterations -> 2 batches of 3 = 6 evals + seed
  cfg.seed = 5;
  const auto res = exec::ShadowFleet(cfg).tune(
      tiny_window(), dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                                 gbps(100), gbps(10)));
  EXPECT_EQ(res.batches, 2);
  EXPECT_EQ(res.evaluations, 1 + 6);
  // The mid-batch end discards the surplus speculative measurements: 4
  // observed trials + the seeding trial are logged, 7 were evaluated.
  ASSERT_EQ(res.episodes.episodes().size(), 1u);
  EXPECT_EQ(res.episodes.episodes()[0].trials.size(), 1u + 4u);
}

}  // namespace
}  // namespace paraleon
