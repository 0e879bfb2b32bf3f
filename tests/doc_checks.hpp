// Schema checks for the JSON documents a run writes, shared by the tests
// that build those documents in-process: the counter registry, episode
// timelines, FCT slowdown summaries, the paraleon.perf.v1 section, Chrome
// trace files and the attribution report. Each appears in more than one
// document (the obs report, grid cells, flight bundles), so each is
// checked here once.
//
// Every check takes a document reparsed with common::Json::parse, the one
// strict parser (a NaN the writer let through reads back as null and fails
// a numeric check). Expected key sets come from the C++ that writes them
// (runner::slowdown_json, obs::params_to_json, obs::trace_category_name),
// never from a second hand-kept list. A missing member throws JsonError,
// which fails the calling test with the member's name.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/json.hpp"
#include "dcqcn/params.hpp"
#include "obs/episode_log.hpp"
#include "obs/trace.hpp"
#include "runner/experiment.hpp"

namespace paraleon::doc_checks {

using common::Json;

/// Member `key` of object `obj`; throws JsonError when it is absent.
inline const Json& at(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  if (v == nullptr) throw common::JsonError("missing member '" + key + "'");
  return *v;
}

/// A non-negative integer: how every count is written.
inline bool is_count(const Json& v) {
  return v.is_integer() && v.as_double() >= 0.0;
}

/// The member names of an object.
inline std::set<std::string> keys_of(const Json& obj) {
  std::set<std::string> out;
  for (const auto& [key, value] : obj.members()) out.insert(key);
  return out;
}

/// The sum of an array of counts.
inline std::uint64_t sum_of(const Json& counts) {
  std::uint64_t sum = 0;
  for (const Json& n : counts.items()) sum += n.as_uint64();
  return sum;
}

/// A counter registry (the obs report's "registry", a bundle's
/// counters.json): exactly counters + gauges, counters non-negative
/// integers, gauges numbers.
inline void check_registry(const Json& reg) {
  EXPECT_EQ(keys_of(reg), (std::set<std::string>{"counters", "gauges"}));
  for (const auto& [name, value] : at(reg, "counters").members()) {
    EXPECT_TRUE(is_count(value)) << "counter " << name;
  }
  for (const auto& [name, value] : at(reg, "gauges").members()) {
    EXPECT_TRUE(value.is_number()) << "gauge " << name;
  }
}

/// Tuning-episode timelines: one array per controller. Every episode and
/// trial carries its fields, and every parameter vector carries exactly
/// the keys obs::params_to_json writes. Returns the number of trials.
inline std::size_t check_episodes(const Json& episodes) {
  const std::set<std::string> param_keys =
      keys_of(obs::params_to_json(dcqcn::DcqcnParams{}));
  std::size_t trials = 0;
  for (const Json& controller : episodes.items()) {
    for (const Json& ep : controller.items()) {
      for (const char* key : {"index", "start_ms", "end_ms", "kl_value",
                              "best_params", "best_utility"}) {
        at(ep, key);
      }
      EXPECT_TRUE(at(ep, "reverted").is_bool());
      const std::string& trigger = at(ep, "trigger").as_string();
      EXPECT_TRUE(trigger == "kl" || trigger == "forced" ||
                  trigger == "blind" || trigger == "steady")
          << "unknown trigger " << trigger;
      EXPECT_EQ(keys_of(at(ep, "start_params")), param_keys);
      EXPECT_EQ(keys_of(at(ep, "best_params")), param_keys);
      for (const Json& trial : at(ep, "trials").items()) {
        ++trials;
        for (const char* key : {"t_ms", "iteration", "temperature",
                                "utility"}) {
          EXPECT_TRUE(at(trial, key).is_number()) << "trial." << key;
        }
        EXPECT_TRUE(at(trial, "accepted").is_bool());
        EXPECT_EQ(keys_of(at(trial, "params")), param_keys);
      }
    }
  }
  return trials;
}

/// One slowdown summary: the keys runner::slowdown_json writes, plus
/// "count" where `with_count` (fct_report_json's form; a grid cell's has
/// none), all numeric, with monotone tail quantiles once any flow
/// finished (`finished`).
inline void check_slowdown_stats(const Json& s, bool with_count,
                                 bool finished) {
  std::set<std::string> want =
      keys_of(runner::slowdown_json(stats::FctTracker::SlowdownStats{}));
  if (with_count) {
    want.insert("count");
    EXPECT_TRUE(is_count(at(s, "count")));
  }
  EXPECT_EQ(keys_of(s), want);
  for (const auto& [key, value] : s.members()) {
    EXPECT_TRUE(value.is_number()) << key;
  }
  if (!finished) return;
  const double p50 = at(s, "p50").as_double();
  const double p95 = at(s, "p95").as_double();
  const double p99 = at(s, "p99").as_double();
  const double p999 = at(s, "p999").as_double();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
}

/// The FCT summary (runner::fct_report_json): finished <= started, the
/// overall and per-bucket slowdown summaries, and bucket counts that sum
/// to the overall count.
inline void check_fct(const Json& fct) {
  EXPECT_LE(at(fct, "finished").as_uint64(), at(fct, "started").as_uint64());
  const Json& overall = at(fct, "slowdown");
  const std::uint64_t count = at(overall, "count").as_uint64();
  check_slowdown_stats(overall, /*with_count=*/true, count > 0);
  std::uint64_t bucket_total = 0;
  for (const Json& bucket : at(fct, "buckets").items()) {
    SCOPED_TRACE("bucket " + at(bucket, "label").as_string());
    EXPECT_TRUE(at(bucket, "min_size").is_integer());
    const Json& stats = at(bucket, "stats");
    const std::uint64_t n = at(stats, "count").as_uint64();
    check_slowdown_stats(stats, /*with_count=*/true, n > 0);
    bucket_total += n;
  }
  EXPECT_EQ(bucket_total, count) << "bucket counts do not sum to the total";
}

/// A paraleon.perf.v1 section (obs report "perf", bundle perf.json). Every
/// executed event lands in one depth bucket and every scheduled one in one
/// horizon bucket; a disabled section is the all-zero stub. Returns
/// events.executed.
inline std::uint64_t check_perf(const Json& perf) {
  EXPECT_EQ(at(perf, "schema").as_string(), "paraleon.perf.v1");
  const bool enabled = at(perf, "enabled").as_bool();
  const Json& ev = at(perf, "events");
  for (const char* key : {"executed", "scheduled", "max_queue_depth"}) {
    EXPECT_TRUE(is_count(at(ev, key))) << "events." << key;
  }
  const std::uint64_t executed = at(ev, "executed").as_uint64();
  const std::uint64_t scheduled = at(ev, "scheduled").as_uint64();
  std::uint64_t tagged = 0;
  for (const char* key : {"by_tag", "by_layer"}) {
    EXPECT_TRUE(at(ev, key).is_object()) << "events." << key;
    for (const auto& [tag, count] : at(ev, key).members()) {
      EXPECT_TRUE(is_count(count)) << key << "." << tag;
    }
  }
  for (const auto& [tag, count] : at(ev, "by_tag").members()) {
    tagged += count.as_uint64();
  }
  EXPECT_LE(tagged, executed) << "tagged events exceed events.executed";
  for (const char* key : {"queue_depth_log2", "schedule_horizon_log2_ns"}) {
    for (const Json& n : at(perf, key).items()) {
      EXPECT_TRUE(is_count(n)) << key;
    }
  }
  EXPECT_EQ(sum_of(at(perf, "queue_depth_log2")), executed);
  EXPECT_EQ(sum_of(at(perf, "schedule_horizon_log2_ns")), scheduled);
  const Json& alloc = at(perf, "alloc");
  for (const char* key : {"closure_bytes", "closure_heap_allocs",
                          "packet_enqueues", "packet_bytes"}) {
    EXPECT_TRUE(is_count(at(alloc, key))) << "alloc." << key;
  }
  const Json& wall = at(perf, "wall");
  for (const char* key : {"seconds", "events_per_sec"}) {
    EXPECT_GE(at(wall, key).as_double(), 0.0) << "wall." << key;
  }
  EXPECT_TRUE(at(wall, "profiled_layer_ns").is_object());
  if (!enabled) {
    EXPECT_EQ(executed, 0u) << "a disabled section must be the zero stub";
    EXPECT_EQ(scheduled, 0u) << "a disabled section must be the zero stub";
  }
  return executed;
}

/// Every name obs::trace_category_name gives a category.
inline std::set<std::string> trace_categories() {
  std::set<std::string> out;
  for (int bit = 0; bit < 32; ++bit) {
    const std::string name =
        obs::trace_category_name(static_cast<obs::TraceCategory>(1u << bit));
    if (name != "unknown") out.insert(name);
  }
  return out;
}

/// A Chrome trace file (TraceRecorder::to_json): every event carries
/// name/cat/ph/ts/pid/tid, a known category and phase and a non-negative
/// ts. A flight bundle's ring tail may be empty (`allow_empty`). Returns
/// the number of events.
inline std::size_t check_trace(const Json& doc, bool allow_empty = false) {
  const std::set<std::string> categories = trace_categories();
  const auto& events = at(doc, "traceEvents").items();
  if (!allow_empty) {
    EXPECT_FALSE(events.empty()) << "no trace events";
  }
  for (const Json& ev : events) {
    at(ev, "name").as_string();
    at(ev, "pid").as_int64();
    at(ev, "tid").as_int64();
    EXPECT_TRUE(categories.count(at(ev, "cat").as_string()))
        << "unknown trace category " << at(ev, "cat").as_string();
    const std::string& ph = at(ev, "ph").as_string();
    EXPECT_TRUE(ph == "i" || ph == "X" || ph == "B" || ph == "E")
        << "unknown phase " << ph;
    EXPECT_GE(at(ev, "ts").as_double(), 0.0);
  }
  return events.size();
}

/// A paraleon.attribution.v1 report (runner::attribution_json). Span ids
/// are issued in event order, so every cause names an earlier span; every
/// tree root is a causality root and every child a span; victims come
/// sorted by blocked time. Returns the number of pause spans.
inline std::size_t check_attribution(const Json& doc) {
  EXPECT_EQ(at(doc, "schema").as_string(), "paraleon.attribution.v1");
  EXPECT_TRUE(at(doc, "enabled").is_bool());
  const Json& engine = at(doc, "engine");
  std::set<std::int64_t> ids;
  std::set<std::int64_t> roots;
  for (const Json& s : at(engine, "pause_spans").items()) {
    for (const char* key : {"pauser", "ingress_port", "paused", "paused_port",
                            "ingress_bytes", "threshold"}) {
      EXPECT_TRUE(at(s, key).is_integer()) << "span." << key;
    }
    EXPECT_TRUE(at(s, "paused_is_switch").is_bool());
    EXPECT_TRUE(at(s, "blocked_flows").is_object());
    const std::int64_t id = at(s, "id").as_int64();
    const std::int64_t start = at(s, "start_ns").as_int64();
    const std::int64_t end = at(s, "end_ns").as_int64();
    EXPECT_TRUE(end == -1 || end >= start) << "span " << id;
    const std::int64_t cause = at(s, "cause").as_int64();
    EXPECT_TRUE(cause == -1 || ids.count(cause))
        << "span " << id << " blames a non-earlier span " << cause;
    if (cause == -1) roots.insert(id);
    ids.insert(id);
  }
  for (const Json& tree : at(engine, "pause_trees").items()) {
    at(tree, "switch").as_int64();
    const std::int64_t root = at(tree, "root").as_int64();
    EXPECT_TRUE(roots.count(root))
        << "tree root " << root << " is not a causality root";
    for (const Json& child : at(tree, "children").items()) {
      EXPECT_TRUE(ids.count(child.as_int64()))
          << "tree child " << child.as_int64() << " is not a span";
    }
  }
  for (const char* name : {"blocked_ns", "rate_limited_ns"}) {
    for (const auto& [flow, ns] : at(engine, name).members()) {
      EXPECT_TRUE(is_count(ns)) << name << "[" << flow << "]";
    }
  }
  std::int64_t prev_blocked = INT64_MAX;
  for (const Json& v : at(doc, "victims").items()) {
    at(v, "flow").as_uint64();
    at(v, "rate_limited_ns").as_int64();
    at(v, "queue_other_ns").as_int64();
    at(v, "slowdown").as_double();
    if (at(v, "fct_ns").as_int64() >= 0) {
      EXPECT_GT(at(v, "ideal_ns").as_int64(), 0)
          << "completed victim with no ideal FCT";
    }
    const std::int64_t blocked = at(v, "pfc_blocked_ns").as_int64();
    EXPECT_LE(blocked, prev_blocked) << "victims not sorted by blocked time";
    prev_blocked = blocked;
  }
  return ids.size();
}

}  // namespace paraleon::doc_checks
