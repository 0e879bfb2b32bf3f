// Scenario schema: strict JSON parsing, unknown-key rejection with
// "did you mean" suggestions, topology math, dotted patches, the tiny
// overlay, and parameter-override application.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"

namespace paraleon::scenario {
namespace {

/// Runs `fn`, which must throw ScenarioError, and returns the message.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ScenarioError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ScenarioError";
  return "";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// The smallest valid scenario; tests splice extra sections in.
std::string minimal(const std::string& extra = "") {
  std::string doc = R"({
    "name": "t",
    "seed": 5,
    "duration_ms": 10,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "workload": [{"name": "p", "kind": "poisson", "load": 0.3}])";
  if (!extra.empty()) doc += ",\n" + extra;
  return doc + "\n}";
}

// ---------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------

TEST(JsonParse, BasicTypesRoundTrip) {
  const Json doc = Json::parse(
      R"({"b": true, "n": 2.5, "i": -7, "s": "x\n", "a": [1, 2],
          "o": {"k": null}})");
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_DOUBLE_EQ(doc.find("n")->as_double(), 2.5);
  EXPECT_EQ(doc.find("i")->as_int64(), -7);
  EXPECT_TRUE(doc.find("i")->is_integer());
  EXPECT_FALSE(doc.find("n")->is_integer());
  EXPECT_EQ(doc.find("s")->as_string(), "x\n");
  EXPECT_EQ(doc.find("a")->items().size(), 2u);
  EXPECT_TRUE(doc.find("o")->find("k")->is_null());
  // Re-parsing the canonical dump reproduces it byte for byte.
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(JsonParse, SyntaxErrorCarriesLineAndColumn) {
  const std::string msg = error_of([] {
    Json::parse("{\n  \"a\": ,\n}", "bad.json");
  });
  EXPECT_TRUE(contains(msg, "bad.json")) << msg;
  EXPECT_TRUE(contains(msg, "line 2")) << msg;
}

TEST(JsonParse, RejectsTrailingComma) {
  (void)error_of([] { Json::parse("[1, 2,]"); });
  (void)error_of([] { Json::parse(R"({"a": 1,})"); });
}

TEST(JsonParse, RejectsContentAfterDocument) {
  (void)error_of([] { Json::parse("{} {}"); });
  (void)error_of([] { Json::parse("1 2"); });
}

TEST(JsonNumber, CanonicalAndRoundTrip) {
  const auto reparsed = [](double v) {
    return Json::parse(Json::make_number(v).dump());
  };
  // Integral values are written without a fraction.
  for (const double v : {1.0, -42.0}) {
    EXPECT_TRUE(reparsed(v).is_integer()) << v;
    EXPECT_EQ(reparsed(v).as_int64(), static_cast<std::int64_t>(v));
  }
  // Others with the shortest digits that round-trip.
  EXPECT_EQ(Json::make_number(0.1).dump(), "0.1");
  EXPECT_EQ(Json::make_number(2.5).dump(), "2.5");
  // Every rendering must parse back to the exact same double.
  for (const double v : {0.1, 2.5, 1.0 / 3.0, 1e-9, 9.87654321e20, 0.4}) {
    EXPECT_FALSE(reparsed(v).is_integer()) << v;
    EXPECT_EQ(reparsed(v).as_double(), v) << Json::make_number(v).dump();
  }
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json obj = Json::make_object();
  obj.set("z", Json::make_int(1));
  obj.set("a", Json::make_int(2));
  obj.set("m", Json::make_int(3));
  obj.set("a", Json::make_int(9));  // replace in place, not re-append
  EXPECT_EQ(obj.dump(), "{\n  \"z\": 1,\n  \"a\": 9,\n  \"m\": 3\n}");
  EXPECT_TRUE(obj.erase("z"));
  EXPECT_FALSE(obj.erase("z"));
  EXPECT_EQ(obj.members().front().first, "a");
}

// ---------------------------------------------------------------------
// Strict key checking ("did you mean")
// ---------------------------------------------------------------------

TEST(ScenarioStrict, UnknownTopLevelKeySuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(R"("topolgy": {})"));
  });
  EXPECT_TRUE(contains(msg, "unknown key \"topolgy\"")) << msg;
  EXPECT_TRUE(contains(msg, "did you mean \"topology\"")) << msg;
}

TEST(ScenarioStrict, UnknownTopologyKeySuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "topology": {"kind": "spine_leaf", "torss": 4},
      "workload": [{"name": "p", "kind": "poisson"}]
    })");
  });
  EXPECT_TRUE(contains(msg, "did you mean \"tors\"")) << msg;
}

TEST(ScenarioStrict, UnknownParamKeySuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(
        R"("scheme": {"params": {"controller.sa.coolingrate": 0.5}})"));
  });
  EXPECT_TRUE(contains(msg, "scheme.params")) << msg;
  EXPECT_TRUE(contains(msg, "did you mean \"controller.sa.cooling_rate\""))
      << msg;
}

TEST(ScenarioStrict, UnknownSchemeNameSuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(R"("scheme": {"name": "paralon"})"));
  });
  EXPECT_TRUE(contains(msg, "did you mean \"paraleon\"")) << msg;
}

TEST(ScenarioStrict, UnknownMetricNameSuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(R"("metric": {"name": "tput_mean_gpbs"})"));
  });
  EXPECT_TRUE(contains(msg, "did you mean \"tput_mean_gbps\"")) << msg;
}

TEST(ScenarioStrict, UnknownComponentKindSuggests) {
  const std::string msg = error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "workload": [{"name": "c", "kind": "all_to_all", "workers": 4}]
    })");
  });
  EXPECT_TRUE(contains(msg, "did you mean \"alltoall\"")) << msg;
}

TEST(ScenarioStrict, KeysAreValidatedPerComponentKind) {
  // `workers` is a collective knob; on a poisson component it is an
  // unknown key, not a silently ignored one.
  const std::string msg = error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "workload": [{"name": "p", "kind": "poisson", "workers": 4}]
    })");
  });
  EXPECT_TRUE(contains(msg, "workload.p")) << msg;
  EXPECT_TRUE(contains(msg, "unknown key \"workers\"")) << msg;
}

TEST(ScenarioStrict, FarFetchedKeyGetsNoSuggestion) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(R"("zzzzqqqq": 1)"));
  });
  EXPECT_TRUE(contains(msg, "unknown key")) << msg;
  EXPECT_FALSE(contains(msg, "did you mean")) << msg;
}

TEST(SuggestKey, PicksClosestWithinBudget) {
  const std::vector<std::string> known = {"tors", "spines", "hosts_per_tor"};
  EXPECT_EQ(suggest_key("torss", known), "tors");
  EXPECT_EQ(suggest_key("spine", known), "spines");
  EXPECT_EQ(suggest_key("xyzzyplugh", known), "");
}

TEST(ParamOverrideKeys, SortedAndNonEmpty) {
  const auto& keys = param_override_keys();
  ASSERT_FALSE(keys.empty());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
}

// ---------------------------------------------------------------------
// Schema semantics
// ---------------------------------------------------------------------

TEST(ScenarioParse, MinimalDefaults) {
  const Scenario sc = parse_scenario_text(minimal());
  EXPECT_EQ(sc.name, "t");
  EXPECT_EQ(sc.seed, 5u);
  EXPECT_DOUBLE_EQ(sc.duration_ms, 10.0);
  EXPECT_EQ(sc.scheme.name, "paraleon");
  EXPECT_EQ(sc.metric.name, "tput_mean_gbps");
  EXPECT_TRUE(sc.sweep.empty());
  ASSERT_EQ(sc.workload.size(), 1u);
  EXPECT_EQ(sc.workload[0].kind, WorkloadComponent::Kind::kPoisson);
}

TEST(ScenarioParse, DuplicateComponentNamesRejected) {
  const std::string msg = error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "workload": [{"name": "p", "kind": "poisson"},
                   {"name": "p", "kind": "poisson"}]
    })");
  });
  EXPECT_TRUE(contains(msg, "duplicate component name \"p\"")) << msg;
}

TEST(ScenarioParse, PoissonLoadMustBeInUnitInterval) {
  (void)error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "workload": [{"name": "p", "kind": "poisson", "load": 0}]
    })");
  });
  (void)error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "workload": [{"name": "p", "kind": "poisson", "load": 1.5}]
    })");
  });
}

TEST(ScenarioParse, DcqcnOverridesRequireCustomScheme) {
  const std::string msg = error_of([] {
    parse_scenario_text(minimal(
        R"("scheme": {"name": "paraleon", "params": {"dcqcn.kmin_kb": 10}})"));
  });
  EXPECT_TRUE(contains(msg, "require scheme \"custom\"")) << msg;

  const Scenario sc = parse_scenario_text(minimal(
      R"("scheme": {"name": "custom", "params": {"dcqcn.kmin_kb": 10}})"));
  const runner::ExperimentConfig cfg = to_experiment_config(sc);
  EXPECT_EQ(cfg.custom_params.kmin_bytes, 10 * 1024);
}

TEST(ScenarioParse, OversubscriptionAndFabricGbpsAreExclusive) {
  const std::string msg = error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "topology": {"kind": "spine_leaf", "oversubscription": 4,
                   "fabric_gbps": 5},
      "workload": [{"name": "p", "kind": "poisson"}]
    })");
  });
  EXPECT_TRUE(contains(msg, "not both")) << msg;
}

/// minimal() with `component` as its one workload component.
std::string with_component(const std::string& component) {
  return R"({
    "name": "t",
    "duration_ms": 10,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "workload": [)" +
         component + "]\n}";
}

/// The ScenarioError message of parsing `doc` ("" when it parses).
std::string parse_error(const std::string& doc) {
  return error_of([&doc] { parse_scenario_text(doc); });
}

TEST(ScenarioParse, MonitorIntervalUnderOneNanosecondRejected) {
  // A 0 ns interval made every MI tick reschedule itself at +0 ns.
  for (const char* mi : {"0", "0.0004", "-1"}) {
    const std::string msg = parse_error(minimal(
        std::string(R"("scheme": {"name": "default", "params": )") +
        R"({"controller.mi_us": )" + mi + "}}"));
    EXPECT_TRUE(contains(msg, "scheme.params.controller.mi_us")) << msg;
  }
  const Scenario sc = parse_scenario_text(minimal(
      R"("scheme": {"name": "default", "params": {"controller.mi_us": 0.001}})"));
  EXPECT_EQ(to_experiment_config(sc).controller.mi, 1);
}

TEST(ScenarioParse, StopAtOrBeforeStartRejected) {
  for (const char* stop : {"2", "1", "0"}) {
    const std::string msg = parse_error(with_component(
        std::string(R"({"name": "p", "kind": "poisson", "start_ms": 2, )") +
        R"("stop_ms": )" + stop + "}"));
    EXPECT_TRUE(contains(msg, "workload.p.stop_ms")) << msg;
  }
  // A negative stop means "until the end of the run".
  (void)parse_scenario_text(with_component(
      R"({"name": "p", "kind": "poisson", "start_ms": 2, "stop_ms": -1})"));
}

TEST(ScenarioParse, StartAtOrAfterDurationRejected) {
  const std::string msg = parse_error(with_component(
      R"({"name": "p", "kind": "poisson", "start_ms": 10})"));
  EXPECT_TRUE(contains(msg, "workload.p.start_ms")) << msg;
}

TEST(ScenarioParse, EmptyMetricWindowRejected) {
  const std::string msg = parse_error(
      minimal(R"("metric": {"name": "tput_mean_gbps", "from_ms": 5,
                            "to_ms": 5})"));
  EXPECT_TRUE(contains(msg, "metric.to_ms")) << msg;
}

TEST(ScenarioParse, WholeRunMetricsRejectAWindow) {
  // The FCT, flow-count, alltoall and SA-count metrics cover the whole
  // run: a window on them would be silently ignored.
  for (const char* name :
       {"fct_p99_slowdown", "fct_mean_slowdown", "fct_p999_slowdown",
        "flows_finished", "fct_p50_ms", "fct_p90_ms", "fct_p99_ms",
        "fct_max_ms", "alltoall_rounds", "sa_episodes", "sa_reverts"}) {
    for (const char* key : {"from_ms", "to_ms"}) {
      SCOPED_TRACE(std::string(name) + "." + key);
      const std::string spec = std::string(R"({"name": ")") + name +
                               R"(", ")" + key + R"(": 5})";
      std::string msg = parse_error(minimal(R"("metric": )" + spec));
      EXPECT_TRUE(contains(msg, std::string("metric.") + key)) << msg;
      msg = parse_error(minimal(R"("metrics": {"m": )" + spec + "}"));
      EXPECT_TRUE(contains(msg, std::string("metrics.m.") + key)) << msg;
    }
  }
  const Scenario sc = parse_scenario_text(
      minimal(R"("metrics": {"finished": {"name": "flows_finished"}})"));
  EXPECT_EQ(sc.metrics.at("finished").name, "flows_finished");
}

TEST(ScenarioParse, MetricWindowOutsideTheRunRejected) {
  // minimal() runs 10 ms: a window starting at or after the end would
  // read 0, and one ending after it a truncated mean.
  const std::pair<const char*, const char*> bad[] = {
      {R"("from_ms": 10)", "from_ms"},
      {R"("from_ms": 12, "to_ms": 14)", "from_ms"},
      {R"("to_ms": 11)", "to_ms"},
      {R"("from_ms": 5, "to_ms": 10.5)", "to_ms"}};
  for (const char* name : {"rtt_mean_us", "sa_utility_mean"}) {
    for (const auto& [window, key] : bad) {
      SCOPED_TRACE(std::string(name) + " " + window);
      const std::string spec =
          std::string(R"({"name": ")") + name + R"(", )" + window + "}";
      std::string msg = parse_error(minimal(R"("metric": )" + spec));
      EXPECT_TRUE(contains(msg, std::string("metric.") + key)) << msg;
      msg = parse_error(minimal(R"("metrics": {"late": )" + spec + "}"));
      EXPECT_TRUE(contains(msg, std::string("metrics.late.") + key)) << msg;
    }
  }
  // A window may end exactly at the end of the run.
  const Scenario sc = parse_scenario_text(minimal(
      R"("metrics": {"tail": {"name": "rtt_mean_us", "from_ms": 9.5,
                              "to_ms": 10},
                     "util": {"name": "sa_utility_mean", "from_ms": 2}})"));
  EXPECT_DOUBLE_EQ(sc.metrics.at("tail").to_ms, 10.0);
  EXPECT_DOUBLE_EQ(sc.metrics.at("util").from_ms, 2.0);
}

TEST(ScenarioParse, MetricWindowsAreCheckedPerCell) {
  // A sweep that shortens the run fails the cell whose window it cuts,
  // naming the cell and the key.
  const std::string msg = error_of([] {
    expand_grid(parse_scenario_text(minimal(
        R"("metrics": {"tail": {"name": "tput_mean_gbps", "from_ms": 6}},
           "sweep": {"axes": [{"key": "duration_ms", "values": [10, 5]}]})")));
  });
  EXPECT_TRUE(contains(msg, "cell 1 (duration_ms=5)")) << msg;
  EXPECT_TRUE(contains(msg, "metrics.tail.from_ms")) << msg;
}

TEST(ScenarioParse, SizeBandOnlyOnTheFctSlowdowns) {
  // A metric that reads no flow sizes would silently ignore a band.
  for (const char* name :
       {"tput_mean_gbps", "rtt_mean_us", "flows_finished", "fsd_accuracy",
        "alltoall_algbw_gbs", "fct_p50_ms", "fct_p90_ms", "fct_p99_ms",
        "fct_max_ms", "alltoall_rounds", "sa_utility_mean", "sa_episodes",
        "sa_reverts"}) {
    for (const char* key : {"from_kb", "to_kb"}) {
      SCOPED_TRACE(std::string(name) + "." + key);
      const std::string spec = std::string(R"({"name": ")") + name +
                               R"(", ")" + key + R"(": 64})";
      std::string msg = parse_error(minimal(R"("metric": )" + spec));
      EXPECT_TRUE(contains(msg, std::string("metric.") + key)) << msg;
      msg = parse_error(minimal(R"("metrics": {"m": )" + spec + "}"));
      EXPECT_TRUE(contains(msg, std::string("metrics.m.") + key)) << msg;
    }
  }
}

TEST(ScenarioParse, EmptyOrNegativeSizeBandRejected) {
  // The band is [from_kb, to_kb): an empty one would read 0, and a
  // negative to_kb would silently mean "no upper bound".
  const std::pair<const char*, const char*> bad[] = {
      {R"("from_kb": 128, "to_kb": 128)", "to_kb"},
      {R"("from_kb": 256, "to_kb": 128)", "to_kb"},
      {R"("from_kb": -1)", "from_kb"},
      {R"("to_kb": -1)", "to_kb"}};
  for (const char* name :
       {"fct_mean_slowdown", "fct_p99_slowdown", "fct_p999_slowdown"}) {
    for (const auto& [band, key] : bad) {
      SCOPED_TRACE(std::string(name) + " " + band);
      const std::string spec =
          std::string(R"({"name": ")") + name + R"(", )" + band + "}";
      std::string msg = parse_error(minimal(R"("metric": )" + spec));
      EXPECT_TRUE(contains(msg, std::string("metric.") + key)) << msg;
      msg = parse_error(minimal(R"("metrics": {"m": )" + spec + "}"));
      EXPECT_TRUE(contains(msg, std::string("metrics.m.") + key)) << msg;
    }
  }
  const Scenario sc = parse_scenario_text(minimal(R"("metrics": {
      "mice": {"name": "fct_p99_slowdown", "to_kb": 128},
      "mid": {"name": "fct_p999_slowdown", "from_kb": 128, "to_kb": 1024},
      "eleph": {"name": "fct_mean_slowdown", "from_kb": 1024}})"));
  EXPECT_DOUBLE_EQ(sc.metrics.at("mid").from_kb, 128.0);
  EXPECT_DOUBLE_EQ(sc.metrics.at("mice").from_kb, 0.0);
  EXPECT_DOUBLE_EQ(sc.metrics.at("mice").to_kb, 128.0);
  EXPECT_DOUBLE_EQ(sc.metrics.at("eleph").from_kb, 1024.0);
  EXPECT_DOUBLE_EQ(sc.metrics.at("eleph").to_kb, -1.0);
}

TEST(ScenarioParse, AlltoallAlgbwNeedsExactlyOneAlltoall) {
  // alltoall_algbw_gbs and alltoall_rounds read the workload's one
  // alltoall component: with none they have nothing to read, with two
  // they could read either.
  for (const std::string kind : {"alltoall_algbw_gbs", "alltoall_rounds"}) {
    SCOPED_TRACE(kind);
    const auto doc = [&](const std::string& components) {
      return R"({"name": "t", "duration_ms": 10,
        "topology": {"kind": "dumbbell", "hosts_per_side": 4},
        "workload": [)" +
             components + R"(],
        "metrics": {"algbw": {"name": ")" + kind + R"("}}})";
    };
    const std::string a =
        R"({"name": "a", "kind": "alltoall", "workers": 4})";
    const std::string b =
        R"({"name": "b", "kind": "alltoall", "workers": 4})";
    const std::string p = R"({"name": "p", "kind": "poisson", "load": 0.3})";
    std::string msg = parse_error(doc(p));
    EXPECT_TRUE(contains(msg, "metrics.algbw.name")) << msg;
    EXPECT_TRUE(contains(msg, "has 0")) << msg;
    msg = parse_error(doc(a + ", " + b));
    EXPECT_TRUE(contains(msg, "metrics.algbw.name")) << msg;
    EXPECT_TRUE(contains(msg, "has 2")) << msg;
    msg = parse_error(minimal(R"("metric": {"name": ")" + kind + R"("})"));
    EXPECT_TRUE(contains(msg, "metric.name")) << msg;
    const Scenario sc = parse_scenario_text(doc(a + ", " + p));
    EXPECT_EQ(sc.metrics.at("algbw").name, kind);
  }
}

TEST(ScenarioParse, SaMetricsNeedExactlyOneController) {
  // The sa_* kinds read the run's one controller: a static scheme has
  // none and the per-pod scheme one per pod.
  for (const char* kind : {"sa_utility_mean", "sa_episodes", "sa_reverts"}) {
    const std::string spec = std::string(R"({"name": ")") + kind + R"("})";
    for (const char* scheme : {"default", "acc", "paraleon_per_pod"}) {
      SCOPED_TRACE(std::string(kind) + " " + scheme);
      const std::string section =
          std::string(R"("scheme": {"name": ")") + scheme + R"("}, )";
      std::string msg = parse_error(minimal(section + R"("metric": )" + spec));
      EXPECT_TRUE(contains(msg, "metric.name")) << msg;
      EXPECT_TRUE(contains(msg, scheme)) << msg;
      msg = parse_error(
          minimal(section + R"("metrics": {"sa": )" + spec + "}"));
      EXPECT_TRUE(contains(msg, "metrics.sa.name")) << msg;
    }
    const Scenario sc =
        parse_scenario_text(minimal(R"("metrics": {"sa": )" + spec + "}"));
    EXPECT_EQ(sc.metrics.at("sa").name, kind);
  }
  // A scheme axis that reaches a static scheme fails that cell, naming it
  // and the key.
  const std::string msg = error_of([] {
    expand_grid(parse_scenario_text(minimal(R"(
        "scheme": {"name": "paraleon"},
        "metrics": {"eps": {"name": "sa_episodes"}},
        "sweep": {"axes": [{"key": "scheme.name",
                            "values": ["paraleon", "expert"]}]})")));
  });
  EXPECT_TRUE(contains(msg, "cell 1 (scheme.name=expert)")) << msg;
  EXPECT_TRUE(contains(msg, "metrics.eps.name")) << msg;
}

TEST(ScenarioParse, FsdAccuracyNeedsTrackingInEveryCell) {
  // Untracked, the accuracy series is empty and the metric would read 0.
  std::string msg =
      parse_error(minimal(R"("metric": {"name": "fsd_accuracy"})"));
  EXPECT_TRUE(contains(msg, "metric.name")) << msg;
  EXPECT_TRUE(contains(msg, "scheme.params.track_fsd_accuracy")) << msg;
  // A sweep that turns tracking off fails that cell, naming it and the
  // key.
  msg = error_of([] {
    expand_grid(parse_scenario_text(minimal(R"(
        "scheme": {"name": "paraleon",
                   "params": {"track_fsd_accuracy": true}},
        "metrics": {"acc": {"name": "fsd_accuracy"}},
        "sweep": {"axes": [{"key": "scheme.params.track_fsd_accuracy",
                            "values": [true, false]}]})")));
  });
  EXPECT_TRUE(contains(msg, "cell 1 (scheme.params.track_fsd_accuracy=false)"))
      << msg;
  EXPECT_TRUE(contains(msg, "metrics.acc.name")) << msg;
  EXPECT_TRUE(contains(msg, "scheme.params.track_fsd_accuracy")) << msg;
}

TEST(ScenarioParse, NamedMetricsParseAndTakeTinyPatches) {
  const std::string doc = minimal(R"("metrics": {
      "influx_rtt_us": {"name": "rtt_mean_us", "from_ms": 2, "to_ms": 8},
      "after_tput_gbps": {"name": "tput_mean_gbps", "from_ms": 8}},
    "tiny": {"duration_ms": 5, "metrics.influx_rtt_us.to_ms": 4,
             "metrics.after_tput_gbps.from_ms": 4})");
  const Scenario full = parse_scenario_text(doc);
  ASSERT_EQ(full.metrics.size(), 2u);
  EXPECT_EQ(full.metrics.at("influx_rtt_us").name, "rtt_mean_us");
  EXPECT_DOUBLE_EQ(full.metrics.at("influx_rtt_us").from_ms, 2.0);
  EXPECT_DOUBLE_EQ(full.metrics.at("influx_rtt_us").to_ms, 8.0);
  EXPECT_DOUBLE_EQ(full.metrics.at("after_tput_gbps").to_ms, -1.0);
  const Scenario tiny = parse_scenario_text(doc, "", /*tiny=*/true);
  EXPECT_DOUBLE_EQ(tiny.metrics.at("influx_rtt_us").to_ms, 4.0);
  EXPECT_DOUBLE_EQ(tiny.metrics.at("after_tput_gbps").from_ms, 4.0);

  std::string msg = parse_error(
      minimal(R"("metrics": {"Influx-RTT": {"name": "rtt_mean_us"}})"));
  EXPECT_TRUE(contains(msg, "[a-z0-9_]+")) << msg;
  msg = parse_error(minimal(R"("metrics": {"m": {"name": "rtt_mean"}})"));
  EXPECT_TRUE(contains(msg, "metrics.m.name")) << msg;
  EXPECT_TRUE(contains(msg, "did you mean \"rtt_mean_us\"")) << msg;
  msg = parse_error(minimal(R"("metrics": {"m": {"name": "rtt_mean_us",
                                                 "from": 1}})"));
  EXPECT_TRUE(contains(msg, "did you mean \"from_ms\"")) << msg;
}

TEST(ScenarioParse, NegativeOffPeriodRejected) {
  const std::string msg = parse_error(with_component(
      R"({"name": "a", "kind": "alltoall", "workers": 4,
          "off_period_ms": -1})"));
  EXPECT_TRUE(contains(msg, "workload.a.off_period_ms")) << msg;
}

TEST(ScenarioParse, NegativeMaxRoundsRejected) {
  const std::string msg = parse_error(with_component(
      R"({"name": "a", "kind": "alltoall", "workers": 4, "max_rounds": -1})"));
  EXPECT_TRUE(contains(msg, "workload.a.max_rounds")) << msg;
}

TEST(ScenarioParse, NegativeStartRejected) {
  const std::string msg = parse_error(with_component(
      R"({"name": "p", "kind": "poisson", "start_ms": -1})"));
  EXPECT_TRUE(contains(msg, "workload.p.start_ms")) << msg;
}

TEST(ScenarioParse, FlowSizeMustBePositive) {
  const std::string msg = parse_error(with_component(
      R"({"name": "a", "kind": "alltoall", "workers": 4, "flow_kb": 0})"));
  EXPECT_TRUE(contains(msg, "workload.a.flow_kb")) << msg;
}

TEST(ScenarioParse, PeriodMustBePositive) {
  const std::string msg = parse_error(with_component(
      R"({"name": "i", "kind": "incast", "workers": 4, "period_ms": 0})"));
  EXPECT_TRUE(contains(msg, "workload.i.period_ms")) << msg;
}

TEST(ScenarioParse, AlltoallNeedsTwoWorkers) {
  std::string msg = parse_error(
      with_component(R"({"name": "a", "kind": "alltoall", "workers": 1})"));
  EXPECT_TRUE(contains(msg, "workload.a.workers")) << msg;
  msg = parse_error(
      with_component(R"({"name": "a", "kind": "alltoall", "hosts": [3]})"));
  EXPECT_TRUE(contains(msg, "workload.a.workers")) << msg;
}

TEST(ScenarioParse, DumbbellNeedsAHostPerSide) {
  const std::string msg = parse_error(R"({
    "name": "t",
    "topology": {"kind": "dumbbell", "hosts_per_side": 0},
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  EXPECT_TRUE(contains(msg, "topology.hosts_per_side")) << msg;
}

TEST(Topology, SpineLeafOversubscriptionDerivesFabricRate) {
  // Paper shape: 8 hosts x 10G per ToR over 4 spines at 4:1 -> 5G uplinks.
  const Scenario sc = parse_scenario_text(R"({
    "name": "t",
    "topology": {"kind": "spine_leaf", "tors": 8, "spines": 4,
                 "hosts_per_tor": 8, "host_gbps": 10,
                 "oversubscription": 4},
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  const runner::ExperimentConfig cfg = to_experiment_config(sc);
  EXPECT_EQ(cfg.clos.n_tor, 8);
  EXPECT_EQ(cfg.clos.n_leaf, 4);
  EXPECT_EQ(cfg.clos.hosts_per_tor, 8);
  EXPECT_DOUBLE_EQ(cfg.clos.host_link, gbps(10));
  EXPECT_DOUBLE_EQ(cfg.clos.fabric_link, gbps(5));
}

TEST(Topology, FatTreeCollapsesToTwoTierClos) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "t",
    "topology": {"kind": "fat_tree", "k": 4},
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  const runner::ExperimentConfig cfg = to_experiment_config(sc);
  EXPECT_EQ(cfg.clos.n_tor, 4);
  EXPECT_EQ(cfg.clos.n_leaf, 2);
  EXPECT_EQ(cfg.clos.hosts_per_tor, 2);

  (void)error_of([] {
    parse_scenario_text(R"({
      "name": "t",
      "topology": {"kind": "fat_tree", "k": 5},
      "workload": [{"name": "p", "kind": "poisson"}]
    })");
  });
}

TEST(Topology, DumbbellBottleneckIsTheFabricLink) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "t",
    "topology": {"kind": "dumbbell", "hosts_per_side": 6,
                 "bottleneck_gbps": 3},
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  const runner::ExperimentConfig cfg = to_experiment_config(sc);
  EXPECT_EQ(cfg.clos.n_tor, 2);
  EXPECT_EQ(cfg.clos.n_leaf, 1);
  EXPECT_EQ(cfg.clos.hosts_per_tor, 6);
  EXPECT_DOUBLE_EQ(cfg.clos.fabric_link, gbps(3));
}

TEST(ScenarioParse, ParamOverridesLandInTheConfig) {
  const Scenario sc = parse_scenario_text(minimal(R"("scheme": {
    "name": "paraleon",
    "params": {
      "controller.sa.total_iter_num": 3,
      "controller.weights": "throughput_sensitive",
      "agent.tau_kb": 64
    }
  })"));
  const runner::ExperimentConfig cfg = to_experiment_config(sc);
  EXPECT_EQ(cfg.controller.sa.total_iter_num, 3);
  const core::UtilityWeights w = core::UtilityWeights::throughput_sensitive();
  EXPECT_DOUBLE_EQ(cfg.controller.weights.tp, w.tp);
  EXPECT_EQ(cfg.agent.ternary.tau_bytes, 64 * 1024);
}

TEST(ScenarioParse, SweepAxesMustBeNonEmpty) {
  (void)error_of([] {
    parse_scenario_text(minimal(R"("sweep": {"axes": []})"));
  });
  (void)error_of([] {
    parse_scenario_text(minimal(
        R"("sweep": {"axes": [{"key": "duration_ms", "values": []}]})"));
  });
}

// ---------------------------------------------------------------------
// Dotted patches and the tiny overlay
// ---------------------------------------------------------------------

TEST(DottedPatch, NavigatesSectionsComponentsAndFlatParams) {
  Json doc = Json::parse(minimal(R"("scheme": {
    "name": "paraleon",
    "params": {"controller.sa.cooling_rate": 0.5}
  })"));
  apply_dotted_patch(doc, "topology.hosts_per_side", Json::make_int(8));
  apply_dotted_patch(doc, "workload.p.load", Json::make_number(0.7));
  // scheme.params entries are flat dotted keys; exact match wins over
  // descending into nonexistent nested objects.
  apply_dotted_patch(doc, "scheme.params.controller.sa.cooling_rate",
                     Json::make_number(0.9));

  const Scenario sc = parse_scenario(doc);
  EXPECT_EQ(sc.topology.hosts_per_side, 8);
  EXPECT_DOUBLE_EQ(sc.workload[0].load, 0.7);
  ASSERT_EQ(sc.scheme.params.size(), 1u);
  EXPECT_DOUBLE_EQ(sc.scheme.params[0].second.as_double(), 0.9);
}

TEST(DottedPatch, UnknownComponentNameFails) {
  Json doc = Json::parse(minimal());
  const std::string msg = error_of([&] {
    apply_dotted_patch(doc, "workload.nope.load", Json::make_number(0.5));
  });
  EXPECT_TRUE(contains(msg, "no component named \"nope\"")) << msg;
}

TEST(DottedPatch, InsertedUnknownKeyDiesOnReparse) {
  // The patch itself inserts freely; the strict reparse is the gate —
  // exactly how a sweep axis over a misspelled key fails.
  Json doc = Json::parse(minimal());
  apply_dotted_patch(doc, "topology.hosts_per_sde", Json::make_int(8));
  const std::string msg = error_of([&] { parse_scenario(doc); });
  EXPECT_TRUE(contains(msg, "did you mean \"hosts_per_side\"")) << msg;
}

TEST(TinyOverlay, AppliedOnlyWhenRequested) {
  const std::string text = minimal(R"("tiny": {
    "duration_ms": 2,
    "workload.p.load": 0.1
  })");
  const Scenario full = parse_scenario_text(text, "", /*tiny=*/false);
  EXPECT_DOUBLE_EQ(full.duration_ms, 10.0);
  EXPECT_DOUBLE_EQ(full.workload[0].load, 0.3);
  // The overlay section itself never reaches the retained document.
  EXPECT_FALSE(full.doc.has("tiny"));

  const Scenario tiny = parse_scenario_text(text, "", /*tiny=*/true);
  EXPECT_DOUBLE_EQ(tiny.duration_ms, 2.0);
  EXPECT_DOUBLE_EQ(tiny.workload[0].load, 0.1);
  EXPECT_FALSE(tiny.doc.has("tiny"));
}

TEST(TinyOverlay, TypoInOverlayIsAHardError) {
  const std::string text = minimal(R"("tiny": {"duration_mss": 2})");
  (void)parse_scenario_text(text, "", /*tiny=*/false);  // inert when unused
  const std::string msg = error_of([&] {
    parse_scenario_text(text, "", /*tiny=*/true);
  });
  EXPECT_TRUE(contains(msg, "did you mean \"duration_ms\"")) << msg;
}

}  // namespace
}  // namespace paraleon::scenario
