// AttributionEngine: unit-level span/causality mechanics, and a hand-built
// two-level pause cascade on a real fabric asserting the reconstructed
// pause chain and HoL victim-flow attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/json.hpp"
#include "doc_checks.hpp"
#include "obs/attribution.hpp"
#include "runner/experiment.hpp"
#include "runner/flight.hpp"

namespace paraleon {
namespace {

using obs::AttributionEngine;
using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

TEST(AttributionEngineTest, DisabledEngineRecordsNothing) {
  AttributionEngine eng;
  eng.register_link(1, 0, 2, 3, true);
  eng.on_xoff(100, 1, 0, 5000, 4000);
  eng.on_flow_blocked(1, 0, 7, 1000);
  eng.on_flow_rate_limited(7, 1000);
  EXPECT_TRUE(eng.spans().empty());
  EXPECT_EQ(eng.blocked_ns(7), 0);
  EXPECT_EQ(eng.rate_limited_ns(7), 0);
}

TEST(AttributionEngineTest, SpanLifecycleAndRefreshDedup) {
  AttributionEngine eng;
  eng.set_enabled(true);
  eng.register_link(10, 2, 20, 5, true);
  eng.on_xoff(100, 10, 2, 9000, 8000);
  eng.on_xoff(150, 10, 2, 9500, 8000);  // refresh: no new span
  ASSERT_EQ(eng.spans().size(), 1u);
  EXPECT_EQ(eng.open_spans(), 1u);
  const auto& s = eng.spans()[0];
  EXPECT_EQ(s.pauser, 10u);
  EXPECT_EQ(s.ingress_port, 2);
  EXPECT_EQ(s.paused, 20u);
  EXPECT_EQ(s.paused_port, 5);
  EXPECT_TRUE(s.paused_is_switch);
  EXPECT_EQ(s.start, 100);
  EXPECT_EQ(s.end, -1);
  EXPECT_EQ(s.cause, -1);
  eng.on_xon(400, 10, 2);
  EXPECT_EQ(eng.spans()[0].end, 400);
  EXPECT_EQ(eng.open_spans(), 0u);
  // A second latch on the same port is a new span.
  eng.on_xoff(500, 10, 2, 9100, 8000);
  EXPECT_EQ(eng.spans().size(), 2u);
}

TEST(AttributionEngineTest, CausalChainLinksThroughPausedSwitch) {
  // 30 pauses 20 (root); 20 — itself paused — then pauses 10.
  AttributionEngine eng;
  eng.set_enabled(true);
  eng.register_link(30, 0, 20, 4, true);  // 30's ingress 0 faces 20
  eng.register_link(20, 1, 10, 3, true);  // 20's ingress 1 faces 10
  eng.on_xoff(100, 30, 0, 9000, 8000);
  eng.on_xoff(200, 20, 1, 7000, 6000);
  ASSERT_EQ(eng.spans().size(), 2u);
  EXPECT_EQ(eng.spans()[1].cause, 0);
  const auto chain = eng.chain_of(1);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], 1);
  EXPECT_EQ(chain[1], 0);
  // Once the root closes, a fresh downstream pause is a new root.
  eng.on_xon(300, 30, 0);
  eng.on_xon(310, 20, 1);
  eng.on_xoff(400, 20, 1, 7000, 6000);
  EXPECT_EQ(eng.spans()[2].cause, -1);
}

TEST(AttributionEngineTest, VictimOrderingAndJsonShape) {
  AttributionEngine eng;
  eng.set_enabled(true);
  eng.register_link(10, 0, 20, 1, true);
  eng.on_xoff(100, 10, 0, 9000, 8000);
  eng.on_flow_blocked(10, 0, /*flow=*/5, 3000);
  eng.on_flow_blocked(10, 0, /*flow=*/6, 7000);
  eng.on_flow_rate_limited(5, 250);
  eng.finalize(1000);
  EXPECT_EQ(eng.spans()[0].end, 1000);
  const auto victims = eng.top_victims(10);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0].flow, 6u);
  EXPECT_EQ(victims[0].blocked, 7000);
  EXPECT_EQ(victims[1].flow, 5u);
  EXPECT_EQ(victims[1].rate_limited, 250);
  const std::string json = eng.to_json().dump();
  const common::Json doc = common::Json::parse(json);
  EXPECT_EQ(doc.find("pause_spans")->items().size(), 1u);
  EXPECT_EQ(doc.find("pause_trees")->items().size(), 1u);
  EXPECT_EQ(doc.find("blocked_ns")->find("6")->as_int64(), 7000);
  // Same inputs, same bytes.
  EXPECT_EQ(json, eng.to_json().dump());
}

// ---- fabric-level cascade ----

// 2 ToRs, 1 leaf, 4 hosts each; 10G host links but a 40G fabric, so a
// 4-to-1 incast into host 4 congests ToR1's leaf-facing ingress first
// (40G in, 10G out), pauses the leaf, backs up into the leaf's
// ToR0-facing ingress, pauses ToR0, and finally pauses the sending hosts:
// a three-switch pause chain with host 0's unrelated flow to host 5 as
// the HoL victim riding the same paused links.
ExperimentConfig cascade_config() {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 1;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(40);
  cfg.clos.prop_delay = microseconds(2);
  cfg.clos.switch_cfg.buffer_bytes = 256 * 1024;  // fills in ~50 us at 40G
  cfg.scheme = Scheme::kDefaultStatic;
  cfg.duration = milliseconds(10);
  cfg.seed = 21;
  cfg.obs.attribution = true;
  return cfg;
}

TEST(AttributionCascadeTest, ReconstructsPauseChainAndNamesVictim) {
  constexpr std::uint32_t kTor0 = 100000, kTor1 = 100001, kLeaf = 200000;
  Experiment exp(cascade_config());
  // The incast: every ToR0 host floods host 4.
  for (int h = 0; h < 4; ++h) {
    exp.inject_flow(h, /*dst=*/4, /*size=*/2 * 1024 * 1024);
  }
  // The victim: a small flow to the UNcongested host 5, sharing only the
  // paused path, injected once the storm is forming.
  const std::uint64_t victim =
      exp.inject_flow(0, /*dst=*/5, /*size=*/64 * 1024, microseconds(100));
  exp.run();

  const AttributionEngine& attr = exp.simulator().obs().attribution();
  const auto& spans = attr.spans();
  ASSERT_FALSE(spans.empty());

  // Root congestion is at ToR1 pausing the leaf.
  const bool tor1_pauses_leaf = std::any_of(
      spans.begin(), spans.end(), [&](const AttributionEngine::PauseSpan& s) {
        return s.pauser == kTor1 && s.paused == kLeaf && s.cause == -1;
      });
  EXPECT_TRUE(tor1_pauses_leaf);

  // Some host-directed pause at ToR0 must chain back through the leaf to a
  // ToR1 root: ToR0 -> leaf -> ToR1.
  bool full_chain = false;
  for (const auto& s : spans) {
    if (s.pauser != kTor0 || s.paused_is_switch) continue;
    const auto chain = attr.chain_of(s.id);
    if (chain.size() < 3) continue;
    const auto& mid = spans[static_cast<std::size_t>(chain[1])];
    const auto& root = spans[static_cast<std::size_t>(chain.back())];
    if (mid.pauser == kLeaf && root.pauser == kTor1 && root.cause == -1) {
      full_chain = true;
      break;
    }
  }
  EXPECT_TRUE(full_chain);

  // The victim flow was HoL-blocked and shows up in the victim list.
  EXPECT_GT(attr.blocked_ns(victim), 0);
  const auto victims = attr.top_victims(10);
  const bool victim_listed = std::any_of(
      victims.begin(), victims.end(),
      [&](const AttributionEngine::Victim& v) { return v.flow == victim; });
  EXPECT_TRUE(victim_listed);

  // The report names it too, with a positive PFC-blocked component.
  const common::Json report =
      common::Json::parse(runner::attribution_json(exp).dump());
  const auto& listed = report.find("victims")->items();
  const auto entry = std::find_if(
      listed.begin(), listed.end(), [&](const common::Json& v) {
        return v.find("flow")->as_uint64() == victim;
      });
  ASSERT_NE(entry, listed.end());
  EXPECT_GT(entry->find("pfc_blocked_ns")->as_int64(), 0);
  // The whole report passes its schema checks: causes name earlier spans,
  // tree roots are causality roots, victims are sorted.
  EXPECT_EQ(doc_checks::check_attribution(report), spans.size());
  EXPECT_FALSE(report.find("engine")->find("pause_trees")->items().empty());
}

TEST(AttributionCascadeTest, DisabledByDefaultEvenUnderPfc) {
  ExperimentConfig cfg = cascade_config();
  cfg.obs.attribution = false;
  Experiment exp(cfg);
  for (int h = 0; h < 4; ++h) {
    exp.inject_flow(h, 4, 2 * 1024 * 1024);
  }
  exp.run();
  // PFC definitely fired...
  EXPECT_GT(exp.topology().total_paused_time(), 0);
  // ...but the disabled engine stayed empty.
  EXPECT_TRUE(exp.simulator().obs().attribution().spans().empty());
}

TEST(AttributionCascadeTest, SameSeedSameAttributionReport) {
  const auto report_of = [] {
    Experiment exp(cascade_config());
    for (int h = 0; h < 4; ++h) {
      exp.inject_flow(h, 4, 2 * 1024 * 1024);
    }
    exp.inject_flow(0, 5, 64 * 1024, microseconds(100));
    exp.run();
    return runner::attribution_json(exp).dump();
  };
  EXPECT_EQ(report_of(), report_of());
}

}  // namespace
}  // namespace paraleon
