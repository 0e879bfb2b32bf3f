// Event queue / simulator: ordering, tie-breaking, run_until semantics,
// and the event storage's memory bounds.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/alltoall_workload.hpp"

namespace paraleon::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsMayScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] {
    ++fired;
    sim.schedule_in(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);  // clock advances to the boundary
  sim.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.run_until(10);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 100);
  try {
    sim.schedule_at(50, [] { FAIL() << "stale event must never run"; });
    FAIL() << "schedule_at into the past must throw";
  } catch (const check::CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("past"), std::string::npos) << what;
  }
  // The simulator stays usable: the bad event was rejected, not queued.
  EXPECT_TRUE(sim.empty());
  int fired = 0;
  sim.schedule_at(200, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleAtCurrentTimeIsAllowed) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_at(sim.now(), [&] { ++fired; });  // t == now is legal
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilNeverOnEmptyQueueIsANoOp) {
  Simulator sim;
  sim.run_until(kTimeNever);
  // An open-ended run over an empty queue must not teleport the clock to
  // the sentinel; later scheduling at small times stays valid.
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5);
}

TEST(Simulator, SameTimestampOrderedBySequenceAcrossSources) {
  // Tie-break is the global scheduling sequence number, also when the
  // same-timestamp events are scheduled from different earlier events.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10,
                  [&] { sim.schedule_at(50, [&] { order.push_back(1); }); });
  sim.schedule_at(20,
                  [&] { sim.schedule_at(50, [&] { order.push_back(2); }); });
  sim.schedule_at(30,
                  [&] { sim.schedule_at(50, [&] { order.push_back(3); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TagAttributionSurvivesPerfToggles) {
  // Pins the event_tags_ side-map leak fix: the tag now rides inside the
  // pooled node, so attribution works for events scheduled while perf
  // counting was OFF, and toggling perf between schedule and execute
  // leaves no orphaned map entries behind.
  Simulator sim;
  sim.schedule_at(10, [] {}, "layer.alpha");   // scheduled while disabled
  sim.obs().perf().set_enabled(true);
  sim.schedule_at(20, [] {}, "layer.beta");
  sim.schedule_at(30, [] {}, "layer.beta");
  sim.run_until(25);
  sim.obs().perf().set_enabled(false);
  sim.schedule_at(40, [] {}, "layer.gamma");   // executes while disabled
  sim.run();
  const auto tags = sim.obs().perf().tags_by_name();
  // alpha and the first beta fired while counting was on; the side-map
  // design missed alpha (no entry was recorded at schedule time).
  EXPECT_EQ(tags.at("layer.alpha"), 1u);
  EXPECT_EQ(tags.at("layer.beta"), 1u);
  EXPECT_EQ(tags.count("layer.gamma"), 0u);
  const auto layers = sim.obs().perf().tags_by_layer();
  EXPECT_EQ(layers.at("layer"), 2u);
}

TEST(Simulator, EventPoolRecyclesNodesAcrossRuns) {
  Simulator sim;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 300; ++i) {
      sim.schedule_in(1 + i, [] {});
    }
    sim.run();
    // Every node returns to the freelist once the queue drains.
    EXPECT_EQ(sim.event_pool_free(), sim.event_pool_capacity());
  }
  // Steady-state rounds reuse the arena: the high-water mark is the one
  // round's 300 outstanding nodes, not 4 * 300.
  EXPECT_EQ(sim.event_pool_capacity(), 300u);
}

TEST(Simulator, CalendarSlotsStayWithinTwiceThePeakQueueDepth) {
  // A short alltoall cell: its RP-timer cohort and packet events sweep
  // every wheel bucket many times over, yet the calendar keeps slots only
  // for the entries that were ever pending together.
  runner::ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = runner::Scheme::kDefaultStatic;
  cfg.duration = milliseconds(10);
  cfg.obs.perf_counters = true;
  runner::Experiment exp(std::move(cfg));
  workload::AlltoallConfig a2a;
  a2a.workers = exp.all_hosts();
  a2a.flow_size = 128 * 1024;
  a2a.off_period = milliseconds(1);
  exp.add_alltoall(a2a);
  exp.run();
  const Simulator& sim = exp.simulator();
  const std::size_t peak = sim.obs().perf().max_queue_depth();
  EXPECT_GT(sim.queue_rotations(), 0u);
  EXPECT_GT(sim.queue_slot_capacity(), 0u);
  EXPECT_LE(sim.queue_slot_capacity(), 2 * peak);
}

TEST(Simulator, CalendarRotatesOnFarHorizonSchedules) {
  Simulator sim;  // default backend: calendar
  int fired = 0;
  // 10 ms >> the 2.1 ms wheel span: the window must rotate to reach it.
  sim.schedule_at(milliseconds(10), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_GT(sim.queue_rotations(), 0u);
}

TEST(Simulator, ZeroDelaySelfChainTerminatesWithRunUntil) {
  Simulator sim;
  // A recurring event must progress the clock when it reschedules with a
  // positive delta; verify run_until respects the horizon.
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule_in(10, tick);
  };
  sim.schedule_at(0, tick);
  sim.run_until(95);
  EXPECT_EQ(ticks, 10);  // t = 0,10,...,90
}

}  // namespace
}  // namespace paraleon::sim
