// PerfMonitor unit tests: log2 histogram edges, counter reset, the
// disabled-is-a-no-op branch contract, simulator integration and the
// paraleon.perf.v1 report section.
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "doc_checks.hpp"
#include "obs/perf.hpp"
#include "obs/profile.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"

namespace paraleon {
namespace {

using obs::PerfMonitor;

TEST(PerfMonitor, BucketEdges) {
  // Bucket 0: non-positive values. Bucket i >= 1: [2^(i-1), 2^i).
  EXPECT_EQ(PerfMonitor::bucket_log2(-7), 0);
  EXPECT_EQ(PerfMonitor::bucket_log2(0), 0);
  EXPECT_EQ(PerfMonitor::bucket_log2(1), 1);
  EXPECT_EQ(PerfMonitor::bucket_log2(2), 2);
  EXPECT_EQ(PerfMonitor::bucket_log2(3), 2);
  EXPECT_EQ(PerfMonitor::bucket_log2(4), 3);
  EXPECT_EQ(PerfMonitor::bucket_log2(7), 3);
  EXPECT_EQ(PerfMonitor::bucket_log2(8), 4);
  // The last bucket absorbs everything larger than 2^(kBuckets-1).
  EXPECT_EQ(PerfMonitor::bucket_log2(std::int64_t{1} << 62),
            PerfMonitor::kBuckets - 1);
}

TEST(PerfMonitor, DisabledHooksAreNoOps) {
  PerfMonitor perf;
  ASSERT_FALSE(perf.enabled());
  perf.on_schedule(/*depth=*/5, /*horizon_ns=*/1000, /*closure_bytes=*/64);
  perf.on_execute(3);
  perf.count_tag("pkt.tx");
  perf.on_packet_enqueue(1500);
  perf.run_begin();
  perf.run_end();
  EXPECT_EQ(perf.events_executed(), 0u);
  EXPECT_EQ(perf.events_scheduled(), 0u);
  EXPECT_EQ(perf.max_queue_depth(), 0u);
  EXPECT_EQ(perf.closure_bytes(), 0u);
  EXPECT_EQ(perf.closure_heap_allocs(), 0u);
  EXPECT_EQ(perf.packet_enqueues(), 0u);
  EXPECT_TRUE(perf.tags_by_name().empty());
  EXPECT_EQ(perf.wall_seconds(), 0.0);
  EXPECT_EQ(perf.events_per_sec(), 0.0);
}

TEST(PerfMonitor, CountersAndHistograms) {
  PerfMonitor perf;
  perf.set_enabled(true);
  // A closure at exactly the SBO capacity stays inline; one byte more
  // heap-allocates. Sizes track UniqueFunction::kInlineBytes so the test
  // follows the engine's buffer, not a literal.
  constexpr std::size_t kSbo = PerfMonitor::kClosureSboBytes;
  perf.on_schedule(0, /*horizon_ns=*/5, /*closure_bytes=*/kSbo);
  perf.on_schedule(1, /*horizon_ns=*/0, /*closure_bytes=*/kSbo + 1);
  EXPECT_EQ(perf.events_scheduled(), 2u);
  EXPECT_EQ(perf.closure_bytes(), 2 * kSbo + 1);
  EXPECT_EQ(perf.closure_heap_allocs(), 1u);
  EXPECT_EQ(perf.max_queue_depth(), 2u);
  // horizon 5 -> bucket bit_width(5) = 3; horizon 0 -> bucket 0.
  EXPECT_EQ(perf.horizon_histogram()[3], 1u);
  EXPECT_EQ(perf.horizon_histogram()[0], 1u);

  perf.on_execute(/*depth=*/2);
  perf.on_execute(/*depth=*/0);
  EXPECT_EQ(perf.events_executed(), 2u);
  EXPECT_EQ(perf.depth_histogram()[2], 1u);  // bit_width(2) = 2
  EXPECT_EQ(perf.depth_histogram()[0], 1u);

  perf.count_tag("pkt.tx");
  perf.count_tag("pkt.tx");
  perf.count_tag("obs.scrape");
  perf.count_tag(nullptr);  // untagged events are not counted per tag
  const auto by_name = perf.tags_by_name();
  ASSERT_EQ(by_name.size(), 2u);
  EXPECT_EQ(by_name.at("pkt.tx"), 2u);
  EXPECT_EQ(by_name.at("obs.scrape"), 1u);
  const auto by_layer = perf.tags_by_layer();
  EXPECT_EQ(by_layer.at("pkt"), 2u);
  EXPECT_EQ(by_layer.at("obs"), 1u);

  perf.on_packet_enqueue(1000);
  perf.on_packet_enqueue(500);
  EXPECT_EQ(perf.packet_enqueues(), 2u);
  EXPECT_EQ(perf.packet_bytes(), 1500u);
}

TEST(PerfMonitor, ResetClearsEverything) {
  PerfMonitor perf;
  perf.set_enabled(true);
  perf.on_schedule(4, 100, 64);
  perf.on_execute(4);
  perf.count_tag("pkt.tx");
  perf.on_packet_enqueue(100);
  perf.run_begin();
  perf.run_end();
  perf.reset();
  EXPECT_EQ(perf.events_executed(), 0u);
  EXPECT_EQ(perf.events_scheduled(), 0u);
  EXPECT_EQ(perf.max_queue_depth(), 0u);
  EXPECT_EQ(perf.closure_heap_allocs(), 0u);
  EXPECT_EQ(perf.packet_enqueues(), 0u);
  EXPECT_TRUE(perf.tags_by_name().empty());
  EXPECT_EQ(perf.wall_seconds(), 0.0);
  for (int i = 0; i < PerfMonitor::kBuckets; ++i) {
    EXPECT_EQ(perf.depth_histogram()[i], 0u);
    EXPECT_EQ(perf.horizon_histogram()[i], 0u);
  }
  // Still enabled: reset clears data, not configuration.
  EXPECT_TRUE(perf.enabled());
}

TEST(PerfMonitor, SimulatorIntegrationCountsEveryEvent) {
  sim::Simulator sim;
  sim.obs().perf().set_enabled(true);
  int sink = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i * 10, [&sink] { ++sink; }, "test.tick");
  }
  sim.schedule_at(2000, [&sink] { ++sink; });  // untagged
  sim.run();
  const obs::PerfMonitor& perf = sim.obs().perf();
  EXPECT_EQ(sink, 101);
  EXPECT_EQ(perf.events_executed(), sim.events_executed());
  EXPECT_EQ(perf.events_scheduled(), 101u);
  EXPECT_EQ(perf.max_queue_depth(), 101u);
  EXPECT_EQ(perf.tags_by_name().at("test.tick"), 100u);
  EXPECT_EQ(perf.tags_by_layer().at("test"), 100u);
  // The wall window was stamped by run_until.
  EXPECT_GT(perf.wall_seconds(), 0.0);
  EXPECT_GT(perf.events_per_sec(), 0.0);
}

TEST(PerfMonitor, DisabledSimulatorRecordsNothing) {
  sim::Simulator sim;
  int sink = 0;
  sim.schedule_at(10, [&sink] { ++sink; }, "test.tick");
  sim.run();
  EXPECT_EQ(sim.obs().perf().events_executed(), 0u);
  EXPECT_EQ(sim.obs().perf().events_scheduled(), 0u);
  EXPECT_EQ(sim.obs().perf().wall_seconds(), 0.0);
}

TEST(PerfReport, SchemaAndDeterministicSections) {
  obs::PerfMonitor perf;
  obs::LoopProfiler profiler;
  const std::string off = obs::perf_report_json(perf, profiler).dump();
  const common::Json off_doc = common::Json::parse(off);
  EXPECT_EQ(doc_checks::check_perf(off_doc), 0u);
  EXPECT_FALSE(off_doc.find("enabled")->as_bool());
  // Disabled stub is a constant: two reads are byte-identical.
  EXPECT_EQ(off, obs::perf_report_json(perf, profiler).dump());

  perf.set_enabled(true);
  perf.on_schedule(0, 5, 8);
  perf.on_execute(0);
  perf.count_tag("pkt.tx");
  const common::Json on =
      common::Json::parse(obs::perf_report_json(perf, profiler).dump());
  EXPECT_EQ(doc_checks::check_perf(on), 1u);
  EXPECT_TRUE(on.find("enabled")->as_bool());
  const common::Json& events = *on.find("events");
  EXPECT_EQ(events.find("by_tag")->find("pkt.tx")->as_int64(), 1);
  const common::Json& by_layer = *events.find("by_layer");
  ASSERT_EQ(by_layer.members().size(), 1u);
  EXPECT_EQ(by_layer.find("pkt")->as_int64(), 1);
}

TEST(PerfReport, ExperimentObsReportCarriesPerfSection) {
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
  const common::Json report =
      common::Json::parse(runner::obs_report_json(exp).dump());
  const common::Json* section = report.find("perf");
  ASSERT_NE(section, nullptr);
  EXPECT_TRUE(section->find("enabled")->as_bool());
  const obs::PerfMonitor& perf = exp.simulator().obs().perf();
  // Every executed and scheduled event of the run sits in one histogram
  // bucket each.
  EXPECT_EQ(doc_checks::check_perf(*section), perf.events_executed());
  EXPECT_GT(perf.events_executed(), 0u);
  EXPECT_GT(perf.packet_enqueues(), 0u);
  EXPECT_EQ(perf.events_executed(), exp.simulator().events_executed());
}

}  // namespace
}  // namespace paraleon
