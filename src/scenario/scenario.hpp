// Declarative scenario schema (ROADMAP item 3): one JSON file describes a
// complete experiment — generated topology, named workload components per
// tenant, tuning scheme with full parameter overrides, the headline
// metric plus named windowed metrics, and an optional sweep grid over any
// dotted config key.
//
// Strictness is the design center: every object is validated against its
// known key set and an unknown or misspelled key anywhere is a hard
// ScenarioError with a "did you mean" suggestion — a typo must never
// silently fall back to a default (the footgun this subsystem exists to
// remove). Sweeps are re-validated per cell: an axis over an unknown key
// fails the same way.
//
// Parity contract: the committed scenarios/ files are the only definition
// of the paper's experiments; tests/scenario_parity_test pins one cell of
// each, digest and table value, recorded from the hand-built setups the
// files replaced.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "scenario/json.hpp"

namespace paraleon::scenario {

class FlowScheduler;

// ---------------------------------------------------------------------
// Schema structs
// ---------------------------------------------------------------------

struct TopologySpec {
  enum class Kind { kSpineLeaf, kFatTree, kDumbbell };
  Kind kind = Kind::kSpineLeaf;

  // spine_leaf
  int tors = 8;
  int spines = 4;
  int hosts_per_tor = 8;
  /// Exactly one of oversubscription / fabric_gbps may be set (0 = unset;
  /// both unset = 1:1). fabric_gbps is the per-(ToR,leaf) uplink rate;
  /// oversubscription derives it: hosts_per_tor*host_gbps /
  /// (spines * oversubscription).
  double oversubscription = 0.0;
  double fabric_gbps = 0.0;

  // fat_tree: two-tier folded-Clos approximation of a k-ary fat tree
  // (k pods collapsed to k ToRs, k/2 spines, k/2 hosts per ToR).
  int k = 4;

  // dumbbell: two ToRs joined by one spine; the spine links are the
  // shared bottleneck.
  int hosts_per_side = 8;
  double bottleneck_gbps = 10.0;

  // shared
  double host_gbps = 10.0;
  double prop_delay_us = 5.0;   // paper value
  double buffer_mb = 12.0;      // paper value
};

struct WorkloadComponent {
  enum class Kind { kAlltoall, kIncast, kPoisson, kPermutation };

  std::string name;
  /// Pure metadata: which tenant owns the component (reports only; the
  /// fabric is shared either way).
  std::string tenant;
  Kind kind = Kind::kPoisson;

  double start_ms = 0.0;
  /// < 0 = run until the end of the experiment.
  double stop_ms = -1.0;
  /// Per-component RNG stream. 0 = derive deterministically from the
  /// scenario seed and the component *name*, so adding or removing a
  /// sibling never shifts this component's arrivals.
  std::uint64_t seed = 0;

  // Collectives (alltoall / permutation) and incast senders.
  int workers = 0;
  /// "strided" spreads workers over the whole fabric (worker i at
  /// i * host_count/workers — the benches' layout), "first" packs them
  /// onto hosts 0..workers-1. Ignored when `hosts` is explicit.
  std::string placement = "strided";
  /// Explicit host ids; empty = use `placement` (collectives) or every
  /// host (poisson).
  std::vector<int> hosts;
  double flow_kb = 512.0;
  double off_period_ms = 1.0;
  int max_rounds = 0;

  // incast
  int receiver = 0;
  double period_ms = 1.0;

  // poisson
  /// "fb_hadoop" or "solar_rpc".
  std::string sizes = "fb_hadoop";
  double load = 0.3;
};

struct SchemeSpec {
  /// Lower-case scheme id: default, expert, custom, paraleon,
  /// paraleon_naive_sa, paraleon_no_fsd, paraleon_netflow,
  /// paraleon_naive_sketch, paraleon_rnic_counters, paraleon_per_pod,
  /// acc, dcqcn_plus.
  std::string name = "paraleon";
  bool force_trigger = false;
  /// Flat dotted parameter overrides ("controller.sa.total_iter_num": 3);
  /// see param_override_keys() for the full surface. Applied on top of
  /// the paper defaults in file order.
  std::vector<Json::Member> params;
};

struct MetricSpec {
  /// tput_mean_gbps | rtt_mean_us | fct_p99_slowdown | fct_mean_slowdown
  /// | flows_finished | fsd_accuracy | alltoall_algbw_gbs. Only the first
  /// two take a window; the others cover the whole run. Only the two FCT
  /// slowdowns take a size band.
  std::string name = "tput_mean_gbps";
  /// The window, within [0, duration_ms].
  double from_ms = 0.0;
  /// < 0 = end of the run.
  double to_ms = -1.0;
  /// The half-open flow-size band [from_kb, to_kb) of an FCT slowdown.
  double from_kb = 0.0;
  /// < 0 = no upper bound.
  double to_kb = -1.0;
};

/// One sweep axis: a dotted `key` and its values. A scalar (or array)
/// value replaces the key's value; an object value is a set of dotted
/// patches under `key` ({"dcqcn.kmax_kb": 20, "dcqcn.kmin_kb": 5} under
/// "scheme.params"), each applied like a tiny-overlay patch, so one axis
/// can move several keys together.
struct SweepAxis {
  std::string key;
  std::vector<Json> values;
};

struct Scenario {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;
  double duration_ms = 50.0;
  TopologySpec topology;
  SchemeSpec scheme;
  std::vector<WorkloadComponent> workload;
  /// The headline metric: each grid cell's `value`.
  MetricSpec metric;
  /// Named table values ([a-z0-9_]+ -> spec), e.g. an influx figure's
  /// before / influx / after windows; each cell reports every one.
  std::map<std::string, MetricSpec> metrics;
  std::vector<SweepAxis> sweep;

  /// The validated document this scenario was parsed from, with the tiny
  /// overlay already applied and the "tiny" section dropped; the sweep
  /// section is retained. GridRunner patches copies of this per cell.
  Json doc;
};

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses and validates a scenario document. `where` names the source for
/// error messages. With `tiny`, the "tiny" overlay (an object of dotted
/// patches) is applied first; the overlay section itself is removed either
/// way. Throws ScenarioError on any syntax, key, type or value problem.
Scenario parse_scenario(const Json& doc, const std::string& where = "",
                        bool tiny = false);
Scenario parse_scenario_text(const std::string& text,
                             const std::string& where = "",
                             bool tiny = false);
Scenario load_scenario_file(const std::string& path, bool tiny = false);

/// Applies one dotted-key patch to a document in place. Navigation: at
/// each object, an exact full-path key wins (flat dotted keys like the
/// scheme.params entries), else descend into the first segment; the
/// "workload" array is navigated by component name. Inserting unknown
/// keys is allowed here — the strict reparse after patching rejects them
/// with the usual suggestion (how sweep axes over bad keys fail).
void apply_dotted_patch(Json& doc, const std::string& key,
                        const Json& value);

/// "did you mean" helper: the closest known key within a small edit
/// distance, or "" when nothing is close. Exposed for the scenario tests.
std::string suggest_key(const std::string& bad,
                        const std::vector<std::string>& known);

/// Every legal scheme.params override key, sorted: the one list, which
/// docs/SCENARIOS.md points to and "did you mean" searches.
const std::vector<std::string>& param_override_keys();

// ---------------------------------------------------------------------
// Mapping onto the experiment harness
// ---------------------------------------------------------------------

runner::Scheme scheme_from_name(const std::string& name);

/// Hosts on the fabric to_experiment_config's Clos shape builds, known
/// without building it.
int host_count(const TopologySpec& t);

/// Builds the full ExperimentConfig: topology generator, scheme, paper
/// defaults (Table III controller, SA schedule, agent thresholds), then
/// the scenario's parameter overrides, duration and seed.
runner::ExperimentConfig to_experiment_config(const Scenario& sc);

/// Evaluates one metric (the headline or a named one) on a finished run
/// and the workload `flows` installed into it (alltoall_algbw_gbs reads
/// the one alltoall component's rounds).
double evaluate_metric(const MetricSpec& metric,
                       const runner::Experiment& exp,
                       const FlowScheduler& flows);

}  // namespace paraleon::scenario
