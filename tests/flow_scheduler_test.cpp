// FlowScheduler: placement resolution, per-component seed streams, the
// new incast/permutation generators through the Experiment harness, and
// the composition invariant — removing or reordering components leaves
// the survivors' flow streams byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "runner/experiment.hpp"
#include "scenario/flow_scheduler.hpp"
#include "scenario/scenario.hpp"
#include "workload/incast_workload.hpp"
#include "workload/permutation_workload.hpp"

namespace paraleon::scenario {
namespace {

constexpr std::uint64_t kBase1 = 1ull << 32;  // first component's id space
constexpr std::uint64_t kBase2 = 2ull << 32;  // second component's id space

/// 8-host dumbbell, static-default scheme (no controller), 10 ms — the
/// cheapest fabric that still exercises cross-ToR placement.
Scenario make_scenario(const std::string& components) {
  return parse_scenario_text(R"({
    "name": "t",
    "seed": 21,
    "duration_ms": 10,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "default"},
    "workload": [)" + components + R"(]
  })");
}

/// Runs the scenario and returns the experiment for inspection.
struct SimRun {
  explicit SimRun(const Scenario& sc) : exp(to_experiment_config(sc)) {
    FlowScheduler flows(sc, &exp);
    flows.install_all();
    exp.run();
    scheduler_components = flows.components().size();
  }
  runner::Experiment exp;
  std::size_t scheduler_components = 0;
};

using Spec = std::tuple<int, int, std::int64_t>;  // (src, dst, size)

/// The flow specs of one component's id space, in arrival (id) order.
std::vector<Spec> specs_in(const runner::Experiment& exp,
                           std::uint64_t base) {
  std::vector<std::pair<std::uint64_t, Spec>> ordered;
  for (const auto& rec : exp.fct().records()) {
    if (rec.flow_id >= base && rec.flow_id < base + (1ull << 32)) {
      ordered.emplace_back(rec.flow_id,
                           Spec{static_cast<int>(rec.src),
                                static_cast<int>(rec.dst), rec.size_bytes});
    }
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<Spec> out;
  out.reserve(ordered.size());
  for (const auto& [id, spec] : ordered) {
    (void)id;
    out.push_back(spec);
  }
  return out;
}

WorkloadComponent component(const std::string& name) {
  WorkloadComponent c;
  c.name = name;
  return c;
}

// ---------------------------------------------------------------------
// Placement resolution
// ---------------------------------------------------------------------

TEST(ResolveHosts, StridedSpreadsOverTheFabric) {
  WorkloadComponent c = component("a");
  c.workers = 4;
  EXPECT_EQ(FlowScheduler::resolve_hosts(c, 8),
            (std::vector<int>{0, 2, 4, 6}));
}

TEST(ResolveHosts, FirstPacksFromHostZero) {
  WorkloadComponent c = component("a");
  c.workers = 3;
  c.placement = "first";
  EXPECT_EQ(FlowScheduler::resolve_hosts(c, 8),
            (std::vector<int>{0, 1, 2}));
}

TEST(ResolveHosts, ExplicitListWinsOverPlacement) {
  WorkloadComponent c = component("a");
  c.workers = 4;
  c.hosts = {5, 1, 7};
  EXPECT_EQ(FlowScheduler::resolve_hosts(c, 8),
            (std::vector<int>{5, 1, 7}));
}

TEST(ResolveHosts, RejectsOutOfRangeAndOversizedPlacements) {
  WorkloadComponent c = component("a");
  c.hosts = {0, 8};
  EXPECT_THROW(FlowScheduler::resolve_hosts(c, 8), ScenarioError);
  WorkloadComponent big = component("b");
  big.workers = 9;
  EXPECT_THROW(FlowScheduler::resolve_hosts(big, 8), ScenarioError);
}

TEST(ResolveHosts, NoWorkersMeansEveryHostForPoisson) {
  EXPECT_TRUE(FlowScheduler::resolve_hosts(component("a"), 8).empty());
}

// ---------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------

TEST(ComponentSeed, ExplicitSeedIsUsedVerbatim) {
  WorkloadComponent c = component("a");
  c.seed = 7;
  EXPECT_EQ(FlowScheduler::component_seed(999, c), 7u);
}

TEST(ComponentSeed, DerivedSeedIsNameKeyed) {
  WorkloadComponent a = component("alpha");
  WorkloadComponent b = component("beta");
  EXPECT_NE(FlowScheduler::component_seed(1, a),
            FlowScheduler::component_seed(1, b));
  EXPECT_NE(FlowScheduler::component_seed(1, a),
            FlowScheduler::component_seed(2, a));
  // Same (scenario seed, name) -> same stream, no positional input.
  EXPECT_EQ(FlowScheduler::component_seed(1, a),
            FlowScheduler::component_seed(1, a));
}

// ---------------------------------------------------------------------
// The new generators through the harness
// ---------------------------------------------------------------------

TEST(Incast, BurstTrainFansIntoTheReceiver) {
  const Scenario sc = make_scenario(R"({
    "name": "fanin", "kind": "incast", "workers": 4, "receiver": 0,
    "flow_kb": 64, "period_ms": 1, "max_rounds": 3
  })");
  SimRun run(sc);
  const std::vector<Spec> specs = specs_in(run.exp, kBase1);
  // Strided over 8 hosts -> {0,2,4,6}; host 0 is the receiver, so three
  // senders x three rounds.
  ASSERT_EQ(specs.size(), 9u);
  for (const auto& [src, dst, size] : specs) {
    EXPECT_EQ(dst, 0);
    EXPECT_TRUE(src == 2 || src == 4 || src == 6) << src;
    EXPECT_EQ(size, 64 * 1024);
  }
}

TEST(Incast, ExplicitSendersExcludeTheReceiver) {
  const Scenario sc = make_scenario(R"({
    "name": "fanin", "kind": "incast", "hosts": [0, 1, 2], "receiver": 1,
    "flow_kb": 64, "period_ms": 1, "max_rounds": 1
  })");
  SimRun run(sc);
  const std::vector<Spec> specs = specs_in(run.exp, kBase1);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(std::get<0>(specs[0]), 0);
  EXPECT_EQ(std::get<0>(specs[1]), 2);
}

TEST(Incast, ReceiverOnlyPlacementIsUnsatisfiable) {
  const Scenario sc = make_scenario(R"({
    "name": "fanin", "kind": "incast", "hosts": [1], "receiver": 1
  })");
  runner::Experiment exp(to_experiment_config(sc));
  FlowScheduler flows(sc, &exp);
  EXPECT_THROW(flows.install_all(), ScenarioError);
}

TEST(CheckPlacement, RejectsWhatInstallAllRejectsWithoutAFabric) {
  for (const char* component : {
           R"({"name": "a", "kind": "alltoall", "workers": 9})",
           R"({"name": "a", "kind": "alltoall", "hosts": [0, 8]})",
           R"({"name": "i", "kind": "incast", "workers": 2, "receiver": 8})",
           R"({"name": "i", "kind": "incast", "hosts": [1], "receiver": 1})",
       }) {
    SCOPED_TRACE(component);
    const Scenario sc = make_scenario(component);
    EXPECT_THROW(FlowScheduler::check_placement(sc), ScenarioError);
    runner::Experiment exp(to_experiment_config(sc));
    FlowScheduler flows(sc, &exp);
    EXPECT_THROW(flows.install_all(), ScenarioError);
  }
  EXPECT_NO_THROW(FlowScheduler::check_placement(make_scenario(
      R"({"name": "a", "kind": "alltoall", "workers": 8})")));
}

TEST(CheckPlacement, HostCountMatchesTheBuiltFabric) {
  for (const char* topology : {
           R"({"kind": "dumbbell", "hosts_per_side": 3})",
           R"({"kind": "spine_leaf", "tors": 3, "spines": 2, "hosts_per_tor": 5})",
           R"({"kind": "fat_tree", "k": 6})",
       }) {
    SCOPED_TRACE(topology);
    const Scenario sc = parse_scenario_text(
        std::string(R"({"name": "t", "topology": )") + topology +
        R"(, "scheme": {"name": "default"}, "workload": [
            {"name": "rpc", "kind": "poisson"}]})");
    runner::Experiment exp(to_experiment_config(sc));
    EXPECT_EQ(host_count(sc.topology), exp.topology().host_count());
  }
}

TEST(Permutation, EveryRoundIsADerangement) {
  const Scenario sc = make_scenario(R"({
    "name": "shuffle", "kind": "permutation", "workers": 4,
    "placement": "first", "flow_kb": 128, "period_ms": 1, "max_rounds": 5
  })");
  SimRun run(sc);
  const std::vector<Spec> specs = specs_in(run.exp, kBase1);
  ASSERT_EQ(specs.size(), 20u);  // 5 rounds x 4 workers
  for (std::size_t r = 0; r < 5; ++r) {
    std::vector<int> dsts;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& [src, dst, size] = specs[r * 4 + i];
      EXPECT_NE(src, dst);  // no self-flows, ever
      EXPECT_GE(dst, 0);
      EXPECT_LT(dst, 4);
      EXPECT_EQ(size, 128 * 1024);
      dsts.push_back(dst);
    }
    std::sort(dsts.begin(), dsts.end());
    EXPECT_EQ(dsts, (std::vector<int>{0, 1, 2, 3}));  // a permutation
  }
}

TEST(Permutation, StartStopWindowBoundsTheRounds) {
  const Scenario sc = make_scenario(R"({
    "name": "shuffle", "kind": "permutation", "workers": 4,
    "start_ms": 2, "stop_ms": 5, "period_ms": 1
  })");
  SimRun run(sc);
  // Rounds fire at 2, 3, 4 ms; the 5 ms round hits the stop gate.
  EXPECT_EQ(specs_in(run.exp, kBase1).size(), 12u);
}

TEST(Scheduler, ComponentsInstallInFileOrder) {
  const Scenario sc = make_scenario(R"({
    "name": "rpc", "kind": "poisson", "tenant": "web", "load": 0.2
  }, {
    "name": "shuffle", "kind": "permutation", "tenant": "storage",
    "workers": 4, "max_rounds": 1
  })");
  runner::Experiment exp(to_experiment_config(sc));
  FlowScheduler flows(sc, &exp);
  flows.install_all();
  ASSERT_EQ(flows.components().size(), 2u);
  EXPECT_EQ(flows.components()[0].name, "rpc");
  EXPECT_EQ(flows.components()[0].tenant, "web");
  EXPECT_EQ(flows.components()[1].name, "shuffle");
  EXPECT_NE(flows.find("rpc"), nullptr);
  EXPECT_NE(flows.find("shuffle"), nullptr);
  EXPECT_EQ(flows.find("nope"), nullptr);
  // The new kinds expose their generators through find().
  auto* perm =
      dynamic_cast<workload::PermutationWorkload*>(flows.find("shuffle"));
  ASSERT_NE(perm, nullptr);
  exp.run();
  EXPECT_EQ(perm->rounds_started(), 1);
}

// ---------------------------------------------------------------------
// Composition invariants
// ---------------------------------------------------------------------

TEST(Scheduler, RemovingASiblingLeavesSurvivorsByteIdentical) {
  const std::string keep = R"({
    "name": "keep", "kind": "poisson", "load": 0.2
  })";
  const Scenario both = make_scenario(
      keep + R"(, {"name": "extra", "kind": "poisson", "load": 0.4})");
  const Scenario alone = make_scenario(keep);
  SimRun run_both(both);
  SimRun run_alone(alone);
  // "keep" is the first component in both files -> same id space; its
  // name-keyed seed stream never saw the sibling, so the arrival specs
  // match flow for flow.
  const std::vector<Spec> with_sibling = specs_in(run_both.exp, kBase1);
  const std::vector<Spec> without = specs_in(run_alone.exp, kBase1);
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with_sibling, without);
  // The sibling actually generated traffic in the composed run.
  EXPECT_FALSE(specs_in(run_both.exp, kBase2).empty());
}

TEST(Scheduler, ReorderingComponentsPreservesEveryStream) {
  const std::string rpc = R"({"name": "rpc", "kind": "poisson", "load": 0.2})";
  const std::string shuffle = R"({
    "name": "shuffle", "kind": "permutation", "workers": 4, "period_ms": 1
  })";
  SimRun ab(make_scenario(rpc + ", " + shuffle));
  SimRun ba(make_scenario(shuffle + ", " + rpc));
  // Id spaces swap with file order; the per-component streams must not.
  EXPECT_EQ(specs_in(ab.exp, kBase1), specs_in(ba.exp, kBase2));  // rpc
  EXPECT_EQ(specs_in(ab.exp, kBase2), specs_in(ba.exp, kBase1));  // shuffle
  ASSERT_FALSE(specs_in(ab.exp, kBase2).empty());
}

TEST(Scheduler, ExplicitSeedDecouplesTheStreamFromTheName) {
  const std::string a = R"({
    "name": "x", "kind": "permutation", "workers": 4, "seed": 42,
    "max_rounds": 4
  })";
  const std::string b = R"({
    "name": "renamed", "kind": "permutation", "workers": 4, "seed": 42,
    "max_rounds": 4
  })";
  SimRun ra(make_scenario(a));
  SimRun rb(make_scenario(b));
  const std::vector<Spec> sa = specs_in(ra.exp, kBase1);
  ASSERT_EQ(sa.size(), 16u);
  EXPECT_EQ(sa, specs_in(rb.exp, kBase1));
}

}  // namespace
}  // namespace paraleon::scenario
