// Unit tests for the observability layer: counter registry, trace
// recorder ring buffer and category filter, episode log, scrape log and
// the JSON documents they write.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "dcqcn/params.hpp"
#include "doc_checks.hpp"
#include "obs/counters.hpp"
#include "obs/episode_log.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace paraleon::obs {
namespace {

TEST(Registry, CounterSlotsAreSharedByName) {
  Registry reg;
  Counter a = reg.counter("x");
  Counter b = reg.counter("x");
  a.add(3);
  b.inc();
  EXPECT_EQ(a.value(), 4);
  EXPECT_EQ(b.value(), 4);
  EXPECT_EQ(reg.value_of("x"), 4.0);
}

TEST(Registry, DefaultConstructedCounterIsInert) {
  Counter c;
  c.inc();
  c.add(100);
  EXPECT_EQ(c.value(), 0);
  EXPECT_FALSE(c.valid());
}

TEST(Registry, GaugesAreReadAtSnapshotTime) {
  Registry reg;
  double v = 1.0;
  reg.gauge("g", [&v] { return v; });
  EXPECT_EQ(reg.value_of("g"), 1.0);
  v = 2.5;
  EXPECT_EQ(reg.value_of("g"), 2.5);
  // Re-registering replaces the callback (re-wired component).
  reg.gauge("g", [] { return 9.0; });
  EXPECT_EQ(reg.value_of("g"), 9.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, SnapshotIsSortedByNameNotRegistrationOrder) {
  Registry reg;
  reg.counter("zz").inc();
  reg.gauge("mm", [] { return 1.0; });
  reg.counter("aa").add(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa");
  EXPECT_EQ(snap[1].name, "mm");
  EXPECT_EQ(snap[2].name, "zz");
  EXPECT_TRUE(snap[0].is_counter);
  EXPECT_FALSE(snap[1].is_counter);
}

TEST(Registry, ReRegisteredGaugeReadsItsLastCallbackAroundAFirstRead) {
  for (const bool read_between : {false, true}) {
    SCOPED_TRACE(read_between ? "read between" : "no read between");
    Registry reg;
    reg.gauge("b", [] { return 1.0; });
    reg.gauge("a", [] { return 2.0; });
    if (read_between) {
      ASSERT_EQ(reg.snapshot().size(), 2u);
    }
    reg.gauge("b", [] { return 3.0; });
    reg.gauge("b", [] { return 4.0; });
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "a");
    EXPECT_EQ(snap[1].name, "b");
    EXPECT_EQ(snap[1].value, 4.0);
    EXPECT_EQ(reg.value_of("b"), 4.0);
  }
}

TEST(Registry, GaugeRegisteredAfterAReadJoinsTheNextSnapshotInNameOrder) {
  Registry reg;
  reg.gauge("m", [] { return 1.0; });
  reg.gauge("z", [] { return 2.0; });
  reg.counter("c").inc();
  ASSERT_EQ(reg.snapshot().size(), 3u);
  reg.gauge("a", [] { return 3.0; });
  reg.gauge("n", [] { return 4.0; });
  std::vector<std::string> names;
  for (const auto& sample : reg.snapshot()) names.push_back(sample.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "m", "n", "z"}));
}

TEST(Registry, LookupsAgreeWithTheSnapshot) {
  Registry reg;
  reg.gauge("q", [] { return 5.0; });
  reg.counter("k").add(6);
  reg.gauge("d", [] { return 7.0; });
  reg.gauge("q", [] { return 8.0; });
  // Every read sorts first, so each is checked on a fresh registry state.
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.has("q"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_EQ(reg.value_of("nope"), 0.0);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.size(), reg.size());
  for (const auto& sample : snap) {
    EXPECT_TRUE(reg.has(sample.name)) << sample.name;
    EXPECT_EQ(reg.value_of(sample.name), sample.value) << sample.name;
  }
}

TEST(Registry, CounterAndGaugeSharingANameBothAppear) {
  Registry reg;
  reg.counter("x").add(2);
  reg.gauge("x", [] { return 3.0; });
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(reg.size(), 2u);
  // The gauge sorts first among equal names; value_of reads the counter.
  EXPECT_FALSE(snap[0].is_counter);
  EXPECT_EQ(snap[0].value, 3.0);
  EXPECT_TRUE(snap[1].is_counter);
  EXPECT_EQ(snap[1].value, 2.0);
  EXPECT_EQ(reg.value_of("x"), 2.0);
  const common::Json doc = reg.to_json();
  EXPECT_EQ(doc.find("counters")->find("x")->as_int64(), 2);
  EXPECT_EQ(doc.find("gauges")->find("x")->as_int64(), 3);
}

TEST(Registry, ConcurrentFirstReadsAgree) {
  // The first read sorts the gauge table under the lock: two readers
  // racing to be first must see the same, fully sorted table.
  Registry reg;
  for (int i = 99; i >= 0; --i) {
    reg.gauge("g." + std::to_string(i), [i] { return i; });
    reg.counter("c." + std::to_string(i)).add(i);
  }
  std::vector<Registry::Sample> first;
  std::vector<Registry::Sample> second;
  std::thread a([&] { first = reg.snapshot(); });
  std::thread b([&] { second = reg.snapshot(); });
  a.join();
  b.join();
  ASSERT_EQ(first.size(), 200u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].value, second[i].value);
    if (i > 0) {
      EXPECT_LE(first[i - 1].name, first[i].name);
    }
  }
}

TEST(Registry, JsonIsDeterministic) {
  const auto build = [] {
    Registry reg;
    reg.counter("b.count").add(7);
    reg.gauge("a.depth", [] { return 1.5; });
    return reg.to_json().dump();
  };
  const std::string once = build();
  EXPECT_EQ(once, build());
  const common::Json doc = common::Json::parse(once);
  doc_checks::check_registry(doc);
  EXPECT_EQ(doc.find("counters")->find("b.count")->as_int64(), 7);
  EXPECT_EQ(doc.find("gauges")->find("a.depth")->as_double(), 1.5);
}

TEST(Registry, JsonPrintsIntegersExactly) {
  Registry reg;
  reg.counter("seven").add(7);
  reg.gauge("minus_three", [] { return -3.0; });
  reg.gauge("zero", [] { return 0.0; });
  reg.gauge("tenth", [] { return 0.1; });
  const common::Json doc = common::Json::parse(reg.to_json().dump());
  const common::Json& gauges = *doc.find("gauges");
  const common::Json& seven = *doc.find("counters")->find("seven");
  EXPECT_TRUE(seven.is_integer());
  EXPECT_EQ(seven.as_int64(), 7);
  EXPECT_TRUE(gauges.find("minus_three")->is_integer());
  EXPECT_EQ(gauges.find("minus_three")->as_int64(), -3);
  EXPECT_TRUE(gauges.find("zero")->is_integer());
  EXPECT_EQ(gauges.find("zero")->as_int64(), 0);
  // Fractional values round-trip.
  EXPECT_EQ(gauges.find("tenth")->as_double(), 0.1);
}

TEST(Trace, DisabledCategoryRecordsNothing) {
  TraceRecorder tr;
  TraceConfig cfg;
  cfg.pfc = true;
  tr.configure(cfg);
  EXPECT_FALSE(tr.enabled(TraceCategory::kPacket));
  EXPECT_TRUE(tr.enabled(TraceCategory::kPfc));
  tr.instant(TraceCategory::kPacket, "pkt.tx", 1, 0, 0);
  EXPECT_EQ(tr.recorded(), 0u);
  tr.instant(TraceCategory::kPfc, "pfc.xoff_tx", 2, 0, 0);
  EXPECT_EQ(tr.recorded(), 1u);
}

TEST(Trace, RingBoundOverwritesOldest) {
  TraceRecorder tr;
  TraceConfig cfg;
  cfg.packet = true;
  cfg.capacity = 4;
  tr.configure(cfg);
  for (int i = 0; i < 10; ++i) {
    tr.instant(TraceCategory::kPacket, "e", i, 0, 0);
  }
  EXPECT_EQ(tr.recorded(), 4u);
  EXPECT_EQ(tr.total(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  std::vector<Time> ts;
  tr.for_each([&ts](const TraceEvent& ev) { ts.push_back(ev.ts); });
  EXPECT_EQ(ts, (std::vector<Time>{6, 7, 8, 9}));
}

TEST(Trace, JsonHasChromeTraceShape) {
  TraceRecorder tr;
  tr.configure(TraceConfig::all_on(16));
  tr.instant(TraceCategory::kPacket, "pkt.tx", microseconds(3) + 500, 7, 2,
             {{"bytes", 1024}});
  tr.begin_span(TraceCategory::kPfc, "pfc.pause", microseconds(5), 7, 2);
  tr.end_span(TraceCategory::kPfc, "pfc.pause", microseconds(9), 7, 2);
  const common::Json doc = common::Json::parse(tr.to_json());
  doc_checks::check_trace(doc);
  const auto& events = doc.find("traceEvents")->items();
  ASSERT_EQ(events.size(), 3u);
  // ts is microseconds with a nanosecond fraction.
  EXPECT_EQ(events[0].find("ts")->as_double(), 3.5);
  EXPECT_EQ(events[1].find("ph")->as_string(), "B");
  EXPECT_EQ(events[2].find("ph")->as_string(), "E");
  EXPECT_EQ(events[0].find("args")->find("bytes")->as_int64(), 1024);
  EXPECT_EQ(events[0].find("pid")->as_int64(), 7);
}

TEST(Trace, UnconfiguredRecorderHasNothingEnabled) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.any_enabled());
  EXPECT_FALSE(tr.enabled(TraceCategory::kSa));
}

TEST(EpisodeLog, RecordsFullEpisodeLifecycle) {
  EpisodeLog log;
  dcqcn::DcqcnParams p = dcqcn::default_params();
  log.begin(milliseconds(10), "kl", 0.05, p);
  EXPECT_TRUE(log.open());
  log.add_trial({milliseconds(11), 0, 90.0, p, 42.0, true});
  log.add_trial({milliseconds(12), 1, 45.0, p, 40.0, false});
  log.close(milliseconds(13), p, 42.0);
  EXPECT_FALSE(log.open());
  ASSERT_EQ(log.episodes().size(), 1u);
  const auto& ep = log.episodes().front();
  EXPECT_STREQ(ep.trigger, "kl");
  EXPECT_DOUBLE_EQ(ep.kl_value, 0.05);
  EXPECT_EQ(ep.trials.size(), 2u);
  EXPECT_TRUE(ep.trials[0].accepted);
  EXPECT_FALSE(ep.trials[1].accepted);
  EXPECT_DOUBLE_EQ(ep.best_utility, 42.0);
  EXPECT_FALSE(ep.reverted);
  log.mark_last_reverted();
  EXPECT_TRUE(log.episodes().front().reverted);
  EXPECT_EQ(log.trial_count(), 2u);
  const std::string json = log.to_json().dump();
  const common::Json doc = common::Json::parse(json);
  // The obs report and a bundle hold one such log per controller.
  common::Json per_controller = common::Json::make_array();
  per_controller.push_back(doc);
  EXPECT_EQ(doc_checks::check_episodes(per_controller), 2u);
  ASSERT_EQ(doc.items().size(), 1u);
  EXPECT_EQ(doc.items()[0].find("trigger")->as_string(), "kl");
  EXPECT_TRUE(doc.items()[0].find("reverted")->as_bool());
  EXPECT_EQ(json, log.to_json().dump());  // deterministic
}

TEST(LoopProfiler, DisabledByDefaultAndSummarizesWhenOn) {
  LoopProfiler prof;
  EXPECT_FALSE(prof.enabled());
  prof.set_enabled(true);
  prof.record("net.serialize", 1000);
  prof.record("net.serialize", 2000);
  prof.record(nullptr, 500);  // untagged events fold into one bucket
  const auto tags = prof.by_tag();
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags.at("net.serialize").count, 2u);
  EXPECT_EQ(tags.at("net.serialize").total_ns, 3000);
  EXPECT_EQ(tags.at("(untagged)").count, 1u);
}

}  // namespace
}  // namespace paraleon::obs
