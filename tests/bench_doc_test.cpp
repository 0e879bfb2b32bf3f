// paraleon.bench.v1: the document TrendReport writes for --perf-out, and
// the committed BENCH_*.json baselines tools/bench_trend.py gates fresh
// runs against, checked against one definition of the schema. Baselines
// also carry the gate fields (direction, tolerances, gate) that a fresh
// run leaves out.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "doc_checks.hpp"

#ifndef PARALEON_SOURCE_DIR
#define PARALEON_SOURCE_DIR "."
#endif

namespace paraleon::doc_checks {
namespace {

/// A paraleon.bench.v1 document: its name and machine fingerprint, and a
/// nonempty metric table whose rows hold a numeric value, an optional unit
/// and, in a baseline, typed gate fields. Returns the number of metrics.
std::size_t check_bench(const Json& doc) {
  EXPECT_EQ(at(doc, "schema").as_string(), "paraleon.bench.v1");
  EXPECT_FALSE(at(doc, "bench").as_string().empty());
  const Json& fp = at(doc, "fingerprint");
  EXPECT_FALSE(at(fp, "compiler").as_string().empty());
  EXPECT_FALSE(at(fp, "build_type").as_string().empty());
  EXPECT_GT(at(fp, "hardware_threads").as_int64(), 0);
  const Json& metrics = at(doc, "metrics");
  EXPECT_FALSE(metrics.members().empty()) << "no metrics";
  for (const auto& [name, m] : metrics.members()) {
    SCOPED_TRACE("metric " + name);
    EXPECT_TRUE(at(m, "value").is_number());
    if (const Json* unit = m.find("unit")) {
      EXPECT_TRUE(unit->is_string());
    }
    if (const Json* direction = m.find("direction")) {
      const std::string& d = direction->as_string();
      EXPECT_TRUE(d == "two_sided" || d == "higher_better" ||
                  d == "lower_better")
          << "unknown direction " << d;
    }
    for (const char* tol : {"rel_tol", "abs_tol"}) {
      if (const Json* t = m.find(tol)) {
        EXPECT_GE(t->as_double(), 0.0) << tol;
      }
    }
    if (const Json* gate = m.find("gate")) {
      EXPECT_TRUE(gate->is_bool());
    }
  }
  return metrics.members().size();
}

std::string read_source_file(const std::string& rel) {
  std::ifstream in(std::string(PARALEON_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in) << rel;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchDoc, TrendReportPassesTheSchemaChecks) {
  runner::ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 1;
  cfg.clos.hosts_per_tor = 2;
  cfg.scheme = runner::Scheme::kDefaultStatic;
  cfg.duration = milliseconds(2);
  cfg.obs.perf_counters = true;
  runner::Experiment exp(cfg);
  exp.inject_flow(0, 2, 64 * 1024);
  exp.run();

  bench::TrendReport trend("trend_doc");
  trend.add("metric_flows_finished", 1.0);
  trend.add("fct_finished", static_cast<double>(exp.fct().finished()),
            "flows");
  bench::add_perf_metrics(trend, exp);
  const Json doc = Json::parse(trend.to_json(), "trend_doc");
  EXPECT_EQ(check_bench(doc), 9u);
  EXPECT_EQ(at(doc, "bench").as_string(), "trend_doc");
  // A fresh run carries values only; the gate fields live in baselines.
  for (const auto& [name, m] : at(doc, "metrics").members()) {
    EXPECT_FALSE(m.has("direction") || m.has("gate")) << name;
  }
}

TEST(BenchDoc, CommittedBaselinesPassTheSchemaChecks) {
  for (const char* file :
       {"BENCH_fig8.json", "BENCH_fig13.json", "BENCH_micro.json"}) {
    SCOPED_TRACE(file);
    const Json doc = Json::parse(read_source_file(file), file);
    check_bench(doc);
    // Every baseline row is a gate row: bench_trend.py reads these.
    for (const auto& [name, m] : at(doc, "metrics").members()) {
      EXPECT_TRUE(m.has("direction") && m.has("gate")) << name;
      EXPECT_TRUE(m.has("rel_tol") || m.has("abs_tol")) << name;
    }
  }
}

}  // namespace
}  // namespace paraleon::doc_checks
