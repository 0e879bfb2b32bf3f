#include "scenario/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "scenario/flow_scheduler.hpp"
#include "stats/percentile.hpp"
#include "workload/alltoall_workload.hpp"
#include "workload/size_distribution.hpp"

namespace paraleon::scenario {

namespace {

// ---------------------------------------------------------------------
// Strict key checking with "did you mean"
// ---------------------------------------------------------------------

std::size_t edit_distance(const std::string& a, const std::string& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> row(m + 1);
  for (std::size_t j = 0; j <= m; ++j) row[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = up;
    }
  }
  return row[m];
}

[[noreturn]] void unknown_key(const std::string& context,
                              const std::string& key,
                              const std::vector<std::string>& known) {
  std::string msg = context + ": unknown key \"" + key + "\"";
  const std::string hint = suggest_key(key, known);
  if (!hint.empty()) msg += " — did you mean \"" + hint + "\"?";
  throw ScenarioError(msg);
}

/// Every member of `obj` must be in `allowed`; anything else is a hard
/// error with a suggestion. This is the anti-silent-default gate.
void check_keys(const Json& obj, const std::string& context,
                const std::vector<std::string>& allowed) {
  if (!obj.is_object()) {
    throw ScenarioError(context + ": expected an object");
  }
  for (const auto& [k, v] : obj.members()) {
    (void)v;
    if (std::find(allowed.begin(), allowed.end(), k) == allowed.end()) {
      unknown_key(context, k, allowed);
    }
  }
}

double get_double(const Json& obj, const std::string& ctx,
                  const std::string& key, double fallback) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : v->as_double(ctx + "." + key);
}

int get_int(const Json& obj, const std::string& ctx, const std::string& key,
            int fallback) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback
                      : static_cast<int>(v->as_int64(ctx + "." + key));
}

std::string get_string(const Json& obj, const std::string& ctx,
                       const std::string& key, const std::string& fallback) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : v->as_string(ctx + "." + key);
}

bool get_bool(const Json& obj, const std::string& ctx,
              const std::string& key, bool fallback) {
  const Json* v = obj.find(key);
  return v == nullptr ? fallback : v->as_bool(ctx + "." + key);
}

void require_positive(double v, const std::string& what) {
  if (!(v > 0.0)) {
    throw ScenarioError(what + " must be > 0");
  }
}

// ---------------------------------------------------------------------
// Section parsers
// ---------------------------------------------------------------------

TopologySpec parse_topology(const Json& obj) {
  TopologySpec t;
  const std::string kind =
      get_string(obj, "topology", "kind", "spine_leaf");
  const std::vector<std::string> kinds = {"spine_leaf", "fat_tree",
                                          "dumbbell"};
  if (kind == "spine_leaf") {
    t.kind = TopologySpec::Kind::kSpineLeaf;
    check_keys(obj, "topology",
               {"kind", "tors", "spines", "hosts_per_tor", "host_gbps",
                "oversubscription", "fabric_gbps", "prop_delay_us",
                "buffer_mb"});
    t.tors = get_int(obj, "topology", "tors", t.tors);
    t.spines = get_int(obj, "topology", "spines", t.spines);
    t.hosts_per_tor =
        get_int(obj, "topology", "hosts_per_tor", t.hosts_per_tor);
  } else if (kind == "fat_tree") {
    t.kind = TopologySpec::Kind::kFatTree;
    check_keys(obj, "topology",
               {"kind", "k", "host_gbps", "oversubscription",
                "prop_delay_us", "buffer_mb"});
    t.k = get_int(obj, "topology", "k", t.k);
    if (t.k < 2 || t.k % 2 != 0) {
      throw ScenarioError("topology.k must be an even integer >= 2");
    }
  } else if (kind == "dumbbell") {
    t.kind = TopologySpec::Kind::kDumbbell;
    check_keys(obj, "topology",
               {"kind", "hosts_per_side", "host_gbps", "bottleneck_gbps",
                "prop_delay_us", "buffer_mb"});
    t.hosts_per_side =
        get_int(obj, "topology", "hosts_per_side", t.hosts_per_side);
    if (t.hosts_per_side < 1) {
      throw ScenarioError("topology.hosts_per_side must be >= 1");
    }
    t.bottleneck_gbps =
        get_double(obj, "topology", "bottleneck_gbps", t.bottleneck_gbps);
    require_positive(t.bottleneck_gbps, "topology.bottleneck_gbps");
  } else {
    unknown_key("topology.kind", kind, kinds);
  }
  t.host_gbps = get_double(obj, "topology", "host_gbps", t.host_gbps);
  t.oversubscription =
      get_double(obj, "topology", "oversubscription", 0.0);
  t.fabric_gbps = get_double(obj, "topology", "fabric_gbps", 0.0);
  t.prop_delay_us =
      get_double(obj, "topology", "prop_delay_us", t.prop_delay_us);
  t.buffer_mb = get_double(obj, "topology", "buffer_mb", t.buffer_mb);
  require_positive(t.host_gbps, "topology.host_gbps");
  require_positive(t.prop_delay_us, "topology.prop_delay_us");
  require_positive(t.buffer_mb, "topology.buffer_mb");
  if (t.oversubscription != 0.0 && t.fabric_gbps != 0.0) {
    throw ScenarioError(
        "topology: set either oversubscription or fabric_gbps, not both");
  }
  if (t.kind != TopologySpec::Kind::kDumbbell) {
    if (t.tors < 1 || t.spines < 1 || t.hosts_per_tor < 1) {
      throw ScenarioError("topology: tors/spines/hosts_per_tor must be >= 1");
    }
  }
  return t;
}

WorkloadComponent parse_component(const Json& obj, std::size_t index) {
  const std::string ctx = "workload[" + std::to_string(index) + "]";
  if (!obj.is_object()) {
    throw ScenarioError(ctx + ": expected an object");
  }
  WorkloadComponent c;
  c.name = get_string(obj, ctx, "name", "");
  if (c.name.empty()) {
    throw ScenarioError(ctx + ": every component needs a \"name\"");
  }
  const std::string named = "workload." + c.name;
  const std::string kind = get_string(obj, named, "kind", "");
  const std::vector<std::string> kinds = {"alltoall", "incast", "poisson",
                                          "permutation"};
  if (kind == "alltoall") {
    c.kind = WorkloadComponent::Kind::kAlltoall;
    check_keys(obj, named,
               {"name", "tenant", "kind", "start_ms", "stop_ms", "workers",
                "placement", "hosts", "flow_kb", "off_period_ms",
                "max_rounds"});
  } else if (kind == "permutation") {
    c.kind = WorkloadComponent::Kind::kPermutation;
    check_keys(obj, named,
               {"name", "tenant", "kind", "start_ms", "stop_ms", "seed",
                "workers", "placement", "hosts", "flow_kb", "period_ms",
                "max_rounds"});
  } else if (kind == "incast") {
    c.kind = WorkloadComponent::Kind::kIncast;
    check_keys(obj, named,
               {"name", "tenant", "kind", "start_ms", "stop_ms", "workers",
                "placement", "hosts", "receiver", "flow_kb", "period_ms",
                "max_rounds"});
  } else if (kind == "poisson") {
    c.kind = WorkloadComponent::Kind::kPoisson;
    check_keys(obj, named,
               {"name", "tenant", "kind", "start_ms", "stop_ms", "seed",
                "hosts", "sizes", "load"});
  } else {
    unknown_key(named + ".kind", kind, kinds);
  }

  c.tenant = get_string(obj, named, "tenant", "");
  c.start_ms = get_double(obj, named, "start_ms", 0.0);
  c.stop_ms = get_double(obj, named, "stop_ms", -1.0);
  if (const Json* s = obj.find("seed")) {
    c.seed = s->as_uint64(named + ".seed");
  }
  c.workers = get_int(obj, named, "workers", 0);
  c.placement = get_string(obj, named, "placement", "strided");
  if (c.placement != "strided" && c.placement != "first") {
    unknown_key(named + ".placement", c.placement, {"strided", "first"});
  }
  if (const Json* h = obj.find("hosts")) {
    if (h->is_string()) {
      if (h->as_string() != "all") {
        throw ScenarioError(named +
                            ".hosts: expected \"all\" or a host-id array");
      }
    } else {
      for (const Json& id : h->items()) {
        c.hosts.push_back(static_cast<int>(id.as_int64(named + ".hosts")));
      }
      if (c.hosts.empty()) {
        throw ScenarioError(named + ".hosts: empty host list");
      }
    }
  }
  c.flow_kb = get_double(obj, named, "flow_kb", c.flow_kb);
  c.off_period_ms = get_double(obj, named, "off_period_ms", c.off_period_ms);
  c.max_rounds = get_int(obj, named, "max_rounds", 0);
  c.receiver = get_int(obj, named, "receiver", 0);
  c.period_ms = get_double(obj, named, "period_ms", c.period_ms);
  c.sizes = get_string(obj, named, "sizes", c.sizes);
  if (c.sizes != "fb_hadoop" && c.sizes != "solar_rpc") {
    unknown_key(named + ".sizes", c.sizes, {"fb_hadoop", "solar_rpc"});
  }
  c.load = get_double(obj, named, "load", c.load);

  // An empty window, a negative time or count, or a flow of no bytes
  // would run nothing (and report 0) or fail deep inside a workload.
  if (c.start_ms < 0.0) throw ScenarioError(named + ".start_ms must be >= 0");
  if (c.stop_ms >= 0.0 && c.stop_ms <= c.start_ms) {
    throw ScenarioError(named + ".stop_ms must be > start_ms (or < 0 for "
                        "the end of the run)");
  }
  require_positive(c.flow_kb, named + ".flow_kb");
  require_positive(c.period_ms, named + ".period_ms");
  if (c.off_period_ms < 0.0) {
    throw ScenarioError(named + ".off_period_ms must be >= 0");
  }
  if (c.max_rounds < 0) {
    throw ScenarioError(named + ".max_rounds must be >= 0");
  }

  const bool collective = c.kind != WorkloadComponent::Kind::kPoisson;
  if (collective && c.hosts.empty() && c.workers < 1) {
    throw ScenarioError(named + ": collective components need workers >= 1");
  }
  const std::size_t workers =
      c.hosts.empty() ? static_cast<std::size_t>(c.workers) : c.hosts.size();
  if (c.kind == WorkloadComponent::Kind::kAlltoall && workers < 2) {
    throw ScenarioError(named + ".workers: an alltoall needs at least 2");
  }
  if (c.kind == WorkloadComponent::Kind::kPoisson &&
      !(c.load > 0.0 && c.load <= 1.0)) {
    throw ScenarioError(named + ".load must be in (0, 1]");
  }
  return c;
}

const std::vector<std::string>& scheme_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& row : runner::kSchemeTable) {
      out.emplace_back(row.file_name);
    }
    return out;
  }();
  return names;
}

SchemeSpec parse_scheme(const Json& obj) {
  check_keys(obj, "scheme", {"name", "force_trigger", "params"});
  SchemeSpec s;
  s.name = get_string(obj, "scheme", "name", s.name);
  // Validates the name (throws with a suggestion on a typo).
  (void)scheme_from_name(s.name);
  s.force_trigger = get_bool(obj, "scheme", "force_trigger", false);
  if (const Json* params = obj.find("params")) {
    if (!params->is_object()) {
      throw ScenarioError("scheme.params: expected an object");
    }
    for (const auto& [k, v] : params->members()) {
      const auto& known = param_override_keys();
      if (std::find(known.begin(), known.end(), k) == known.end()) {
        unknown_key("scheme.params", k, known);
      }
      s.params.emplace_back(k, v);
    }
  }
  return s;
}

/// What each metric kind takes besides its name: a time window, a
/// flow-size band, or neither (it covers the whole run).
struct MetricKind {
  const char* name;
  bool windowed;
  bool banded;
};
constexpr MetricKind kMetricKinds[] = {
    {"tput_mean_gbps", true, false},     {"rtt_mean_us", true, false},
    {"sa_utility_mean", true, false},    {"fct_mean_slowdown", false, true},
    {"fct_p99_slowdown", false, true},   {"fct_p999_slowdown", false, true},
    {"flows_finished", false, false},    {"fct_p50_ms", false, false},
    {"fct_p90_ms", false, false},        {"fct_p99_ms", false, false},
    {"fct_max_ms", false, false},        {"fsd_accuracy", false, false},
    {"alltoall_algbw_gbs", false, false}, {"alltoall_rounds", false, false},
    {"sa_episodes", false, false},       {"sa_reverts", false, false},
};

/// One metric spec under `ctx` ("metric" or "metrics.<name>"). A window
/// must lie within the run and apply to a windowed metric, and a size band
/// must be non-empty and apply to a banded one (an FCT slowdown): anything
/// else would read 0, a truncated mean, or silently ignore the window or
/// band.
MetricSpec parse_metric(const Json& obj, const std::string& ctx,
                        double duration_ms) {
  check_keys(obj, ctx, {"name", "from_ms", "to_ms", "from_kb", "to_kb"});
  MetricSpec m;
  m.name = get_string(obj, ctx, "name", m.name);
  const auto kind =
      std::find_if(std::begin(kMetricKinds), std::end(kMetricKinds),
                   [&](const MetricKind& k) { return m.name == k.name; });
  if (kind == std::end(kMetricKinds)) {
    std::vector<std::string> names;
    for (const MetricKind& k : kMetricKinds) names.emplace_back(k.name);
    unknown_key(ctx + ".name", m.name, names);
  }
  for (const char* key : {"from_ms", "to_ms"}) {
    if (!kind->windowed && obj.has(key)) {
      throw ScenarioError(ctx + "." + key + ": " + m.name +
                          " covers the whole run and takes no window");
    }
  }
  for (const char* key : {"from_kb", "to_kb"}) {
    if (!obj.has(key)) continue;
    if (!kind->banded) {
      throw ScenarioError(ctx + "." + key + ": " + m.name +
                          " takes no size band (only the FCT slowdowns do)");
    }
    if (get_double(obj, ctx, key, 0.0) < 0.0) {
      throw ScenarioError(ctx + "." + key + " must not be negative");
    }
  }
  m.from_kb = get_double(obj, ctx, "from_kb", 0.0);
  m.to_kb = get_double(obj, ctx, "to_kb", -1.0);
  if (m.to_kb >= 0.0 && m.to_kb <= m.from_kb) {
    throw ScenarioError(ctx + ".to_kb must be > from_kb (the band is "
                        "[from_kb, to_kb))");
  }
  m.from_ms = get_double(obj, ctx, "from_ms", 0.0);
  m.to_ms = get_double(obj, ctx, "to_ms", -1.0);
  if (m.to_ms >= 0.0 && m.to_ms <= m.from_ms) {
    throw ScenarioError(ctx + ".to_ms must be > from_ms (or < 0 for the "
                        "end of the run)");
  }
  if (m.from_ms >= duration_ms) {
    throw ScenarioError(ctx + ".from_ms must be before duration_ms");
  }
  if (m.to_ms > duration_ms) {
    throw ScenarioError(ctx + ".to_ms must not be after duration_ms");
  }
  return m;
}

std::map<std::string, MetricSpec> parse_metrics(const Json& obj,
                                                 double duration_ms) {
  if (!obj.is_object()) {
    throw ScenarioError("metrics: expected an object of named metrics");
  }
  std::map<std::string, MetricSpec> out;
  for (const auto& [name, spec] : obj.members()) {
    if (name.empty() ||
        name.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_") !=
            std::string::npos) {
      throw ScenarioError("metrics.\"" + name +
                          "\": a metric name is [a-z0-9_]+");
    }
    out[name] = parse_metric(spec, "metrics." + name, duration_ms);
  }
  return out;
}

/// The rules a metric spec needs the rest of the scenario for: the FSD
/// accuracy series exists only when the config tracks it, the alltoall_*
/// kinds read the one alltoall component, and the sa_* kinds the one
/// controller.
void check_metric_inputs(const MetricSpec& m, const std::string& ctx,
                         const Scenario& sc,
                         const runner::ExperimentConfig& cfg) {
  if (m.name == "fsd_accuracy" && !cfg.track_fsd_accuracy) {
    throw ScenarioError(ctx + ".name: fsd_accuracy needs "
                        "scheme.params.track_fsd_accuracy on, or it "
                        "reads 0");
  }
  if (m.name.rfind("alltoall_", 0) == 0) {
    const auto alltoalls = std::count_if(
        sc.workload.begin(), sc.workload.end(), [](const auto& c) {
          return c.kind == WorkloadComponent::Kind::kAlltoall;
        });
    if (alltoalls != 1) {
      throw ScenarioError(ctx + ".name: " + m.name + " reads the "
                          "workload's one alltoall component, but it has " +
                          std::to_string(alltoalls));
    }
  }
  if (m.name.rfind("sa_", 0) == 0) {
    const runner::Scheme scheme = scheme_from_name(sc.scheme.name);
    if (!runner::scheme_has_controller(scheme) ||
        scheme == runner::Scheme::kParaleonPerPod) {
      throw ScenarioError(ctx + ".name: " + m.name + " reads the run's one "
                          "controller, but scheme \"" + sc.scheme.name +
                          "\" runs " +
                          (scheme == runner::Scheme::kParaleonPerPod
                               ? "one per pod"
                               : "none"));
    }
  }
}

std::vector<SweepAxis> parse_sweep(const Json& obj) {
  check_keys(obj, "sweep", {"axes"});
  const Json* axes = obj.find("axes");
  if (axes == nullptr || !axes->is_array()) {
    throw ScenarioError("sweep.axes: expected an array of axes");
  }
  std::vector<SweepAxis> out;
  for (std::size_t i = 0; i < axes->items().size(); ++i) {
    const Json& a = axes->items()[i];
    const std::string ctx = "sweep.axes[" + std::to_string(i) + "]";
    check_keys(a, ctx, {"key", "values"});
    SweepAxis axis;
    axis.key = get_string(a, ctx, "key", "");
    if (axis.key.empty()) {
      throw ScenarioError(ctx + ": needs a dotted \"key\"");
    }
    const Json* values = a.find("values");
    if (values == nullptr || !values->is_array() ||
        values->items().empty()) {
      throw ScenarioError(ctx + ".values: expected a non-empty array");
    }
    for (const Json& v : values->items()) {
      if (v.is_object() && v.members().empty()) {
        throw ScenarioError(ctx + ".values: an object value needs at least "
                            "one dotted patch");
      }
    }
    axis.values = values->items();
    out.push_back(std::move(axis));
  }
  if (out.empty()) {
    throw ScenarioError("sweep.axes: expected at least one axis");
  }
  return out;
}

// ---------------------------------------------------------------------
// Parameter overrides
// ---------------------------------------------------------------------

using Applier = void (*)(runner::ExperimentConfig&, const Json&,
                         const std::string&);

struct ParamEntry {
  const char* key;
  Applier apply;
};

core::UtilityWeights weights_from(const Json& v, const std::string& ctx) {
  if (v.is_string()) {
    const std::string& name = v.as_string(ctx);
    if (name == "default") return core::UtilityWeights{};
    if (name == "throughput_sensitive") {
      return core::UtilityWeights::throughput_sensitive();
    }
    unknown_key(ctx, name, {"default", "throughput_sensitive"});
  }
  if (!v.is_array() || v.items().size() != 3) {
    throw ScenarioError(ctx + ": expected [tp, rtt, pfc] or a preset name");
  }
  core::UtilityWeights w;
  w.tp = v.items()[0].as_double(ctx);
  w.rtt = v.items()[1].as_double(ctx);
  w.pfc = v.items()[2].as_double(ctx);
  return w;
}

const std::vector<ParamEntry>& param_table() {
  static const std::vector<ParamEntry> table = {
      {"agent.evict_after_idle",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.agent.ternary.evict_after_idle =
             static_cast<int>(v.as_int64(x));
       }},
      {"agent.tau_kb",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.agent.ternary.tau_bytes =
             static_cast<std::int64_t>(v.as_double(x) * 1024.0);
       }},
      {"controller.blind_retrigger_mi",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.blind_retrigger_mi = static_cast<int>(v.as_int64(x));
       }},
      {"controller.episode_cooldown_mi",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.episode_cooldown_mi = static_cast<int>(v.as_int64(x));
       }},
      {"controller.eval_mi_per_candidate",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.eval_mi_per_candidate =
             static_cast<int>(v.as_int64(x));
       }},
      {"controller.fsd_available",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.fsd_available = v.as_bool(x);
       }},
      {"controller.fsd_ema",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.fsd_ema = v.as_double(x);
       }},
      {"controller.kl_theta",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.kl_theta = v.as_double(x);
       }},
      {"controller.mi_us",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.mi = microseconds(v.as_double(x));
         if (c.controller.mi < 1) {
           throw ScenarioError(x + " must be at least 0.001 (1 ns)");
         }
       }},
      {"controller.post_check_window_mi",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.post_check_window_mi =
             static_cast<int>(v.as_int64(x));
       }},
      {"controller.revert_margin",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.revert_margin = v.as_double(x);
       }},
      {"controller.sa.acceptance_temp_scale",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.acceptance_temp_scale = v.as_double(x);
       }},
      {"controller.sa.cooling_rate",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.cooling_rate = v.as_double(x);
       }},
      {"controller.sa.eta",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.eta = v.as_double(x);
       }},
      {"controller.sa.final_temp",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.final_temp = v.as_double(x);
       }},
      {"controller.sa.guided",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.guided = v.as_bool(x);
       }},
      {"controller.sa.initial_temp",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.initial_temp = v.as_double(x);
       }},
      {"controller.sa.total_iter_num",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.sa.total_iter_num = static_cast<int>(v.as_int64(x));
       }},
      {"controller.steady_retrigger_mi",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.steady_retrigger_mi =
             static_cast<int>(v.as_int64(x));
       }},
      {"controller.trigger_kick_steps",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.trigger_kick_steps = static_cast<int>(v.as_int64(x));
       }},
      {"controller.weights",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.controller.weights = weights_from(v, x);
       }},
      {"dcqcn.ai_rate_mbps",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.ai_rate = mbps(v.as_double(x));
       }},
      {"dcqcn.alpha_update_period_us",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.alpha_update_period = microseconds(v.as_double(x));
       }},
      {"dcqcn.clamp_tgt_rate",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.clamp_tgt_rate = v.as_bool(x);
       }},
      {"dcqcn.g",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.g = v.as_double(x);
       }},
      {"dcqcn.hai_rate_mbps",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.hai_rate = mbps(v.as_double(x));
       }},
      {"dcqcn.initial_alpha",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.initial_alpha = v.as_double(x);
       }},
      {"dcqcn.kmax_kb",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.kmax_bytes =
             static_cast<std::int64_t>(v.as_double(x) * 1024.0);
       }},
      {"dcqcn.kmin_kb",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.kmin_bytes =
             static_cast<std::int64_t>(v.as_double(x) * 1024.0);
       }},
      {"dcqcn.min_rate_mbps",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.min_rate = mbps(v.as_double(x));
       }},
      {"dcqcn.min_time_between_cnps_us",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.min_time_between_cnps =
             microseconds(v.as_double(x));
       }},
      {"dcqcn.pmax",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.pmax = v.as_double(x);
       }},
      {"dcqcn.rate_reduce_monitor_period_us",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.rate_reduce_monitor_period =
             microseconds(v.as_double(x));
       }},
      {"dcqcn.rpg_byte_reset",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.rpg_byte_reset = v.as_int64(x);
       }},
      {"dcqcn.rpg_threshold",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.rpg_threshold = static_cast<int>(v.as_int64(x));
       }},
      {"dcqcn.rpg_time_reset_us",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.custom_params.rpg_time_reset = microseconds(v.as_double(x));
       }},
      {"invariants.level",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         const std::string& level = v.as_string(x);
         if (level == "off") {
           c.invariants.level = check::CheckLevel::kOff;
         } else if (level == "basic") {
           c.invariants.level = check::CheckLevel::kBasic;
         } else if (level == "full") {
           c.invariants.level = check::CheckLevel::kFull;
         } else {
           unknown_key(x, level, {"off", "basic", "full"});
         }
       }},
      {"track_fsd_accuracy",
       [](runner::ExperimentConfig& c, const Json& v, const std::string& x) {
         c.track_fsd_accuracy = v.as_bool(x);
       }},
  };
  return table;
}

void apply_params(const SchemeSpec& scheme, runner::ExperimentConfig& cfg) {
  for (const auto& [key, value] : scheme.params) {
    for (const auto& entry : param_table()) {
      if (key == entry.key) {
        entry.apply(cfg, value, "scheme.params." + key);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dotted patching
// ---------------------------------------------------------------------

void patch_node(Json& node, const std::string& full,
                const std::string& path, const Json& value) {
  if (node.is_array()) {
    // The workload array is navigated by component name.
    const std::size_t dot = path.find('.');
    const std::string head = path.substr(0, dot);
    for (Json& item : node.items()) {
      const Json* name = item.find("name");
      if (name != nullptr && name->is_string() &&
          name->as_string() == head) {
        if (dot == std::string::npos) {
          throw ScenarioError("patch \"" + full +
                              "\": cannot replace a whole component");
        }
        patch_node(item, full, path.substr(dot + 1), value);
        return;
      }
    }
    throw ScenarioError("patch \"" + full + "\": no component named \"" +
                        head + "\"");
  }
  if (!node.is_object()) {
    throw ScenarioError("patch \"" + full +
                        "\": path runs into a non-object value");
  }
  // An exact flat key wins (scheme.params entries are flat dotted keys).
  if (node.has(path)) {
    node.set(path, value);
    return;
  }
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) {
    node.set(path, value);
    return;
  }
  const std::string head = path.substr(0, dot);
  if (Json* child = node.find(head)) {
    patch_node(*child, full, path.substr(dot + 1), value);
    return;
  }
  // Insert as a flat key; the strict reparse rejects it if unknown.
  node.set(path, value);
}

void apply_overlay(Json& doc, const Json& overlay,
                   const std::string& context) {
  if (!overlay.is_object()) {
    throw ScenarioError(context + ": expected an object of dotted patches");
  }
  for (const auto& [k, v] : overlay.members()) {
    apply_dotted_patch(doc, k, v);
  }
}

}  // namespace

std::string suggest_key(const std::string& bad,
                        const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_d = bad.size() / 2 + 2;  // only suggest close matches
  for (const auto& k : known) {
    const std::size_t d = edit_distance(bad, k);
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

const std::vector<std::string>& param_override_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (const auto& e : param_table()) out.emplace_back(e.key);
    std::sort(out.begin(), out.end());
    return out;
  }();
  return keys;
}

void apply_dotted_patch(Json& doc, const std::string& key,
                        const Json& value) {
  if (key.empty()) throw ScenarioError("patch: empty key");
  patch_node(doc, key, key, value);
}

runner::Scheme scheme_from_name(const std::string& name) {
  for (const auto& row : runner::kSchemeTable) {
    if (name == row.file_name) return row.scheme;
  }
  unknown_key("scheme.name", name, scheme_names());
}

Scenario parse_scenario(const Json& doc, const std::string& where,
                        bool tiny) {
  const std::string ctx = where.empty() ? std::string("scenario") : where;
  if (!doc.is_object()) {
    throw ScenarioError(ctx + ": the document root must be an object");
  }
  Json work = doc;
  if (const Json* overlay = work.find("tiny")) {
    if (tiny) {
      const Json patches = *overlay;  // copy: patching mutates `work`
      work.erase("tiny");
      apply_overlay(work, patches, ctx + ".tiny");
    } else {
      if (!overlay->is_object()) {
        throw ScenarioError(ctx + ".tiny: expected an object");
      }
      work.erase("tiny");
    }
  }

  check_keys(work, ctx,
             {"name", "description", "seed", "duration_ms", "topology",
              "scheme", "workload", "metric", "metrics", "sweep"});

  Scenario sc;
  sc.name = get_string(work, ctx, "name", "");
  if (sc.name.empty()) {
    throw ScenarioError(ctx + ": a scenario needs a \"name\"");
  }
  sc.description = get_string(work, ctx, "description", "");
  if (const Json* seed = work.find("seed")) {
    sc.seed = seed->as_uint64(ctx + ".seed");
  }
  sc.duration_ms = get_double(work, ctx, "duration_ms", sc.duration_ms);
  require_positive(sc.duration_ms, ctx + ".duration_ms");

  if (const Json* topo = work.find("topology")) {
    sc.topology = parse_topology(*topo);
  }
  if (const Json* scheme = work.find("scheme")) {
    sc.scheme = parse_scheme(*scheme);
  }
  const Json* wl = work.find("workload");
  if (wl == nullptr || !wl->is_array() || wl->items().empty()) {
    throw ScenarioError(ctx +
                        ".workload: expected a non-empty component array");
  }
  for (std::size_t i = 0; i < wl->items().size(); ++i) {
    WorkloadComponent c = parse_component(wl->items()[i], i);
    if (c.start_ms >= sc.duration_ms) {
      throw ScenarioError("workload." + c.name +
                          ".start_ms must be before duration_ms");
    }
    for (const auto& prev : sc.workload) {
      if (prev.name == c.name) {
        throw ScenarioError(ctx + ".workload: duplicate component name \"" +
                            c.name + "\"");
      }
    }
    sc.workload.push_back(std::move(c));
  }
  if (const Json* metric = work.find("metric")) {
    sc.metric = parse_metric(*metric, "metric", sc.duration_ms);
  }
  if (const Json* metrics = work.find("metrics")) {
    sc.metrics = parse_metrics(*metrics, sc.duration_ms);
  }
  if (const Json* sweep = work.find("sweep")) {
    sc.sweep = parse_sweep(*sweep);
  }
  // dcqcn.* overrides feed custom_params, which only kCustomStatic reads:
  // anywhere else they would be silently dead configuration.
  if (sc.scheme.name != "custom") {
    for (const auto& [k, v] : sc.scheme.params) {
      (void)v;
      if (k.rfind("dcqcn.", 0) == 0) {
        throw ScenarioError("scheme.params." + k +
                            ": dcqcn overrides require scheme \"custom\"");
      }
    }
  }
  // Apply the overrides once to a scratch config, so a bad value fails
  // here, naming its key, rather than when a cell runs.
  runner::ExperimentConfig scratch;
  apply_params(sc.scheme, scratch);
  check_metric_inputs(sc.metric, "metric", sc, scratch);
  for (const auto& [name, metric] : sc.metrics) {
    check_metric_inputs(metric, "metrics." + name, sc, scratch);
  }
  sc.doc = std::move(work);
  return sc;
}

Scenario parse_scenario_text(const std::string& text,
                             const std::string& where, bool tiny) {
  return parse_scenario(Json::parse(text, where), where, tiny);
}

Scenario load_scenario_file(const std::string& path, bool tiny) {
  std::ifstream f(path);
  if (!f) {
    throw ScenarioError("cannot open scenario file: " + path);
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_scenario_text(buf.str(), path, tiny);
}

namespace {

/// The paper-default block (Table III controller, SA schedule, agent
/// thresholds), applied on top of an already-shaped clos config.
void apply_paper_defaults(runner::ExperimentConfig& cfg) {
  cfg.controller.mi = milliseconds(1);       // Table III
  cfg.controller.kl_theta = 0.01;            // Table III
  cfg.controller.weights = {0.2, 0.5, 0.3};  // Table III
  // SA episode sized for the scaled fabric: 5 iters/temp, 0.7 cooling,
  // 2 MIs per candidate (~70 ms per episode vs the paper's 280 ms with
  // Table III's 20/0.85 — episode shape preserved, budget reduced).
  cfg.controller.sa.total_iter_num = 5;
  cfg.controller.sa.cooling_rate = 0.7;
  cfg.controller.sa.initial_temp = 90;
  cfg.controller.sa.final_temp = 10;
  cfg.controller.sa.eta = 0.8;  // Table III
  cfg.controller.eval_mi_per_candidate = 2;
  // The paper's tau = 1MB elephant threshold is referenced to 100G links
  // (~8% of line rate per 1 ms interval); keep the same relative meaning
  // on the scaled fabric.
  cfg.agent.ternary.tau_bytes = static_cast<std::int64_t>(
      (1 << 20) * (cfg.clos.host_link / gbps(100)));
  // Keep flows tracked across collective compute (OFF) gaps so the FSD
  // stays stable over an ON-OFF workload (§IV-B1).
  cfg.agent.ternary.evict_after_idle = 25;
  cfg.controller.episode_cooldown_mi = 30;
  // Ratchet mode: keep re-tuning from the best-known setting; the
  // post-episode check rolls back regressions.
  cfg.controller.steady_retrigger_mi = 40;
}

/// Sets the Clos shape (ToRs, leaves, hosts per ToR) the topology kind
/// generates.
void set_clos_shape(const TopologySpec& t, sim::ClosConfig& clos) {
  switch (t.kind) {
    case TopologySpec::Kind::kSpineLeaf:
      clos.n_tor = t.tors;
      clos.n_leaf = t.spines;
      clos.hosts_per_tor = t.hosts_per_tor;
      break;
    case TopologySpec::Kind::kFatTree:
      clos.n_tor = t.k;
      clos.n_leaf = t.k / 2;
      clos.hosts_per_tor = t.k / 2;
      break;
    case TopologySpec::Kind::kDumbbell:
      clos.n_tor = 2;
      clos.n_leaf = 1;
      clos.hosts_per_tor = t.hosts_per_side;
      break;
  }
}

}  // namespace

int host_count(const TopologySpec& t) {
  sim::ClosConfig clos;
  set_clos_shape(t, clos);
  return clos.n_tor * clos.hosts_per_tor;
}

runner::ExperimentConfig to_experiment_config(const Scenario& sc) {
  runner::ExperimentConfig cfg;
  const TopologySpec& t = sc.topology;
  set_clos_shape(t, cfg.clos);
  cfg.clos.host_link = gbps(t.host_gbps);
  if (t.kind == TopologySpec::Kind::kDumbbell) {
    cfg.clos.fabric_link = gbps(t.bottleneck_gbps);
  } else if (t.fabric_gbps > 0.0) {
    cfg.clos.fabric_link = gbps(t.fabric_gbps);
  } else if (t.oversubscription > 0.0) {
    // Per-ToR downlink / (uplinks * oversubscription): the paper's 4:1 at
    // 8 hosts x 10G over 4 spines gives 5G uplinks.
    cfg.clos.fabric_link =
        gbps(static_cast<double>(cfg.clos.hosts_per_tor) * t.host_gbps /
             (static_cast<double>(cfg.clos.n_leaf) * t.oversubscription));
  } else {
    cfg.clos.fabric_link = cfg.clos.host_link;
  }
  cfg.clos.prop_delay = microseconds(t.prop_delay_us);
  cfg.clos.switch_cfg.buffer_bytes =
      static_cast<std::int64_t>(t.buffer_mb * 1024.0 * 1024.0);

  cfg.scheme = scheme_from_name(sc.scheme.name);
  apply_paper_defaults(cfg);
  if (cfg.scheme == runner::Scheme::kCustomStatic) {
    // Custom settings start from the scaled default and patch from there.
    cfg.custom_params = runner::initial_params_for(
        runner::Scheme::kDefaultStatic, cfg.clos.host_link);
  }
  apply_params(sc.scheme, cfg);
  cfg.duration = milliseconds(sc.duration_ms);
  cfg.seed = sc.seed;
  return cfg;
}

double evaluate_metric(const MetricSpec& metric,
                       const runner::Experiment& exp,
                       const FlowScheduler& flows) {
  const Time from = milliseconds(metric.from_ms);
  const Time to = metric.to_ms < 0.0 ? exp.config().duration
                                     : milliseconds(metric.to_ms);
  // A negative to_kb is no upper bound; a bound past INT64_MAX bytes is
  // clamped rather than cast out of range.
  const auto band_bytes = [](double kb) {
    const double bytes = kb * 1024.0;
    return kb < 0.0 || bytes >= 0x1p63 ? INT64_MAX
                                       : static_cast<std::int64_t>(bytes);
  };
  const std::int64_t min_size = band_bytes(metric.from_kb);
  const std::int64_t max_size = band_bytes(metric.to_kb);
  if (metric.name == "tput_mean_gbps") {
    return exp.throughput_series().mean_in(from, to);
  }
  if (metric.name == "rtt_mean_us") {
    return exp.rtt_series().mean_in(from, to);
  }
  if (metric.name == "fct_p99_slowdown") {
    return exp.fct().slowdown_stats(min_size, max_size).p99;
  }
  if (metric.name == "fct_mean_slowdown") {
    return exp.fct().slowdown_stats(min_size, max_size).mean;
  }
  if (metric.name == "fct_p999_slowdown") {
    return exp.fct().slowdown_stats(min_size, max_size).p999;
  }
  if (metric.name == "flows_finished") {
    return static_cast<double>(exp.fct().finished());
  }
  // FCT quantiles in ms over every finished flow.
  constexpr std::pair<const char*, double> kFctMsQuantiles[] = {
      {"fct_p50_ms", 0.5},
      {"fct_p90_ms", 0.9},
      {"fct_p99_ms", 0.99},
      {"fct_max_ms", 1.0}};
  for (const auto& [name, q] : kFctMsQuantiles) {
    if (metric.name != name) continue;
    std::vector<double> ms = exp.fct().fct_seconds(0, INT64_MAX);
    for (double& f : ms) f *= 1e3;
    return stats::quantile(std::move(ms), q);
  }
  if (metric.name == "fsd_accuracy") {
    return exp.mean_fsd_accuracy();
  }
  if (metric.name.rfind("alltoall_", 0) == 0) {
    const auto c = std::find_if(
        flows.components().begin(), flows.components().end(),
        [](const auto& comp) {
          return comp.kind == WorkloadComponent::Kind::kAlltoall;
        });
    if (c == flows.components().end()) {
      throw ScenarioError("metric.name: " + metric.name +
                          " found no alltoall component in the run");
    }
    const auto& a2a =
        dynamic_cast<const workload::AlltoallWorkload&>(*c->workload);
    const int rounds = a2a.rounds_completed();
    if (metric.name == "alltoall_rounds") return rounds;
    // Mean algbw over the completed rounds, 0 when none completed.
    if (rounds == 0) return 0.0;
    double sum = 0.0;
    for (int r = 0; r < rounds; ++r) sum += a2a.round_algbw_gbs(r);
    return sum / rounds;
  }
  if (metric.name.rfind("sa_", 0) == 0) {
    if (exp.controllers().size() != 1) {
      throw ScenarioError("metric.name: " + metric.name +
                          " needs exactly one controller in the run");
    }
    const core::ParaleonController& c = *exp.controllers().front();
    if (metric.name == "sa_utility_mean") {
      return c.utility_series().mean_in(from, to);
    }
    if (metric.name == "sa_episodes") {
      return static_cast<double>(c.episodes());
    }
    if (metric.name == "sa_reverts") {
      return static_cast<double>(c.reverts());
    }
  }
  throw ScenarioError("metric.name: unknown metric \"" + metric.name +
                      "\"");
}

}  // namespace paraleon::scenario
