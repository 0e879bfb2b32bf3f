// FlowScheduler: composes a scenario's named workload components into one
// deterministic flow-arrival stream on the shared fabric — the replacement
// for the per-bench hand-wired setup_workloads() functions.
//
// Determinism contract:
//   * Components install in file order, so same-timestamp arrivals fire
//     in file order (the event engine is FIFO within a timestamp).
//   * Every stochastic component owns an independent RNG stream. An
//     explicit per-component seed is used verbatim; otherwise the stream
//     is derived from (scenario seed, component *name*) — never from the
//     component's position — so adding or removing a sibling leaves the
//     survivors' arrival times byte-identical (tested).
//   * Flow-id spaces are disjoint: the scheduler routes alltoall/poisson
//     through the Experiment's own add_* paths (byte-identical to the
//     legacy benches) and claims next_workload_flow_base() for the new
//     kinds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "scenario/scenario.hpp"

namespace paraleon::scenario {

class FlowScheduler {
 public:
  /// Binds to a scenario and its (already constructed) experiment; call
  /// install_all() before run(). The experiment must outlive this object.
  FlowScheduler(const Scenario& scenario, runner::Experiment* exp);

  /// Installs every component, in file order. Throws ScenarioError on an
  /// unsatisfiable placement (more workers than hosts, receiver out of
  /// range, ...).
  void install_all();

  struct Installed {
    std::string name;
    std::string tenant;
    WorkloadComponent::Kind kind;
    workload::Workload* workload = nullptr;
  };
  const std::vector<Installed>& components() const { return installed_; }
  workload::Workload* find(const std::string& name) const;

  /// The derived seed for a component without an explicit one: scenario
  /// seed mixed with the FNV-1a hash of the component *name* (position-
  /// independent by construction).
  static std::uint64_t component_seed(std::uint64_t scenario_seed,
                                      const WorkloadComponent& c);

  /// Resolves a component's participant host ids against the fabric:
  /// explicit list > placement ("strided" spreads over the fabric the way
  /// the benches lay collectives out, "first" packs from host 0).
  static std::vector<int> resolve_hosts(const WorkloadComponent& c,
                                        int host_count);

  /// Throws the ScenarioError install_all() would for a placement the
  /// scenario's fabric cannot hold (more workers than hosts, a host or
  /// receiver outside it, an incast with no sender), without building the
  /// fabric. expand_grid runs it on every cell, so a bad cell fails before
  /// any cell runs.
  static void check_placement(const Scenario& sc);

 private:
  void install_one(const WorkloadComponent& c);
  /// An incast's senders: its hosts without the receiver. Throws when the
  /// receiver is off the fabric or no sender is left.
  static std::vector<int> incast_senders(const WorkloadComponent& c,
                                         int host_count);

  const Scenario& scenario_;
  runner::Experiment* exp_;
  std::vector<Installed> installed_;
};

}  // namespace paraleon::scenario
