// Unit tests for the observability layer: counter registry, trace
// recorder ring buffer and category filter, episode log, scrape log and
// value formatting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dcqcn/params.hpp"
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

TEST(Registry, JsonAndCsvAreDeterministic) {
  const auto build = [] {
    Registry reg;
    reg.counter("b.count").add(7);
    reg.gauge("a.depth", [] { return 1.5; });
    return reg.to_json() + "\n" + reg.to_csv();
  };
  const std::string once = build();
  EXPECT_EQ(once, build());
  EXPECT_NE(once.find("\"b.count\": 7"), std::string::npos);
  EXPECT_NE(once.find("a.depth"), std::string::npos);
}

TEST(Registry, FormatValuePrintsIntegersExactly) {
  EXPECT_EQ(format_value(7.0), "7");
  EXPECT_EQ(format_value(-3.0), "-3");
  EXPECT_EQ(format_value(0.0), "0");
  // Fractional values round-trip.
  EXPECT_EQ(std::stod(format_value(0.1)), 0.1);
}

TEST(ScrapeLog, FilterRestrictsSeries) {
  Registry reg;
  Counter a = reg.counter("keep");
  reg.counter("skip").inc();
  ScrapeLog log;
  log.set_filter({"keep"});
  log.record(0, reg);
  a.add(5);
  log.record(10, reg);
  ASSERT_EQ(log.series("keep").points().size(), 2u);
  EXPECT_EQ(log.series("keep").points()[1].value, 5.0);
  EXPECT_EQ(log.series("skip").points().size(), 0u);
  EXPECT_EQ(log.series("absent").points().size(), 0u);
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
  const std::string json = tr.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // ts is microseconds with a nanosecond fraction.
  EXPECT_NE(json.find("\"ts\": 3.500"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 7"), std::string::npos);
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
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"trigger\": \"kl\""), std::string::npos);
  EXPECT_NE(json.find("\"reverted\": true"), std::string::npos);
  EXPECT_EQ(json, log.to_json());  // deterministic
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
