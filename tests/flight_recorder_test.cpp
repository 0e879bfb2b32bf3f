// Flight recorder: anomaly-trigger thresholds, dump-on-CheckFailure with a
// complete replayable bundle, byte-identical same-seed bundles, and the
// replay request read back from manifest.json.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.hpp"
#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "runner/experiment.hpp"
#include "runner/flight.hpp"

namespace paraleon {
namespace {

using obs::AnomalyTriggers;
using obs::BundleWriter;
using obs::FlightConfig;
using runner::Experiment;
using runner::ExperimentConfig;
using runner::ReplayRequest;
using runner::Scheme;

AnomalyTriggers::Sample sample(Time t, std::int64_t paused, std::int64_t drops,
                               std::int64_t reverts) {
  AnomalyTriggers::Sample s;
  s.t = t;
  s.total_paused_ns = paused;
  s.drops = drops;
  s.reverts = reverts;
  return s;
}

TEST(AnomalyTriggersTest, FirstSampleOnlySeeds) {
  AnomalyTriggers trig;
  FlightConfig cfg;
  cfg.armed = true;
  cfg.pause_ns_per_sec = 1;
  cfg.drop_burst = 1;
  cfg.on_sa_revert = true;
  trig.configure(cfg);
  // Even a wildly anomalous first sample cannot fire a rate trigger.
  EXPECT_EQ(trig.update(sample(1'000'000, 1'000'000'000, 100, 5)), nullptr);
}

TEST(AnomalyTriggersTest, PauseRateFiresOnGrowthAboveThreshold) {
  AnomalyTriggers trig;
  FlightConfig cfg;
  cfg.armed = true;
  cfg.pause_ns_per_sec = 50'000'000;  // 5% of link-time
  trig.configure(cfg);
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  // 1 ms window, 10 us of new pause: 1% < 5%, silent.
  EXPECT_EQ(trig.update(sample(1'000'000, 10'000, 0, 0)), nullptr);
  // Next 1 ms adds 100 us of pause: 10% > 5%, fires.
  const char* fired = trig.update(sample(2'000'000, 110'000, 0, 0));
  ASSERT_NE(fired, nullptr);
  EXPECT_STREQ(fired, "pfc_pause_rate");
}

TEST(AnomalyTriggersTest, DropBurstAndRevertAndUtilityFloor) {
  AnomalyTriggers trig;
  FlightConfig cfg;
  cfg.armed = true;
  cfg.drop_burst = 8;
  cfg.on_sa_revert = true;
  cfg.utility_floor = 0.5;
  cfg.utility_floor_set = true;
  trig.configure(cfg);
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  // 8 new drops == threshold: silent. 9: fires.
  EXPECT_EQ(trig.update(sample(1'000'000, 0, 8, 0)), nullptr);
  EXPECT_STREQ(trig.update(sample(2'000'000, 0, 17, 0)), "mmu_drop_burst");
  trig.reset();
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  EXPECT_STREQ(trig.update(sample(1'000'000, 0, 0, 1)), "sa_revert");
  trig.reset();
  AnomalyTriggers::Sample low = sample(0, 0, 0, 0);
  low.utility = 0.4;
  low.utility_valid = true;
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  EXPECT_STREQ(trig.update(low), "utility_collapse");
}

TEST(AnomalyTriggersTest, DisabledThresholdsStaySilent) {
  AnomalyTriggers trig;
  FlightConfig cfg;
  cfg.armed = true;  // armed, but every threshold left at its disabled default
  trig.configure(cfg);
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  EXPECT_EQ(trig.update(sample(1'000'000, 900'000, 1000, 3)), nullptr);

  // And a disarmed config never fires regardless of thresholds.
  FlightConfig hot;
  hot.pause_ns_per_sec = 1;
  hot.drop_burst = 1;
  trig.configure(hot);
  trig.reset();
  EXPECT_EQ(trig.update(sample(0, 0, 0, 0)), nullptr);
  EXPECT_EQ(trig.update(sample(1'000'000, 900'000, 1000, 3)), nullptr);
}

// ---- bundles from real runs ----

ExperimentConfig armed_config(std::uint64_t seed, const std::string& dir) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = Scheme::kDefaultStatic;
  cfg.duration = milliseconds(20);
  cfg.seed = seed;
  cfg.invariants.level = check::CheckLevel::kFull;
  cfg.obs.flight.armed = true;
  cfg.obs.flight.dir = dir;
  return cfg;
}

void add_load(Experiment& exp, std::uint64_t seed) {
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::solar_rpc_distribution();
  w.load = 0.4;
  w.stop = milliseconds(15);
  w.seed = seed;
  exp.add_poisson(w);
}

const std::vector<std::string>& bundle_files() {
  static const std::vector<std::string> files = {
      "manifest.json", "config.json", "counters.json",   "trace.json",
      "ports.json",    "episodes.json", "attribution.json"};
  return files;
}

/// Runs the PR-1 buffer-accounting fault injection under an armed recorder
/// and returns the bundle directory (asserting the dump happened).
std::string run_faulted(const std::string& dir, std::uint64_t seed) {
  Experiment exp(armed_config(seed, dir));
  add_load(exp, 5);
  exp.simulator().schedule_at(milliseconds(5), [&exp] {
    exp.topology().tor(0).inject_buffer_accounting_fault(4096);
  });
  EXPECT_THROW(exp.run(), check::CheckFailure);
  EXPECT_FALSE(exp.flight_bundle_dir().empty());
  return exp.flight_bundle_dir();
}

TEST(FlightRecorderTest, CheckFailureDumpsCompleteBundle) {
  const std::string dir = ::testing::TempDir() + "flight_dump";
  std::filesystem::remove_all(dir);
  const std::string bundle = run_faulted(dir, /*seed=*/3);
  ASSERT_FALSE(bundle.empty());
  EXPECT_NE(bundle.find("flight_check_failure"), std::string::npos);
  for (const auto& f : bundle_files()) {
    bool ok = false;
    const std::string content = BundleWriter::read_file(bundle, f, &ok);
    EXPECT_TRUE(ok) << f << " missing from bundle";
    EXPECT_FALSE(content.empty()) << f << " is empty";
  }
  // The failure itself is preserved with the MMU conservation message.
  bool ok = false;
  const common::Json failure = common::Json::parse(
      BundleWriter::read_file(bundle, "failure.json", &ok));
  ASSERT_TRUE(ok);
  EXPECT_NE(failure.find("message")->as_string().find("not conserved"),
            std::string::npos);
  // And the manifest names the reason.
  const common::Json manifest = common::Json::parse(
      BundleWriter::read_file(bundle, "manifest.json", &ok));
  ASSERT_TRUE(ok);
  EXPECT_EQ(manifest.find("schema")->as_string(), "paraleon.flight.v1");
  EXPECT_EQ(manifest.find("reason")->as_string(), "check_failure");
}

TEST(FlightRecorderTest, CheckFailureAfterATriggerWritesItsOwnBundle) {
  const std::string dir = ::testing::TempDir() + "flight_after_trigger";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg = armed_config(/*seed=*/3, dir);
  cfg.obs.flight.pause_ns_per_sec = 1;  // any PFC pause fires
  cfg.clos.switch_cfg.buffer_bytes = 256 << 10;
  Experiment exp(cfg);
  // A 7-to-1 incast into a shallow buffer pauses the fabric well before
  // the fault; it starts after the first scan, which only seeds the rate.
  for (int src = 1; src < 8; ++src) {
    exp.inject_flow(src, 0, 4 << 20, milliseconds(2));
  }
  exp.simulator().schedule_at(milliseconds(10), [&exp] {
    exp.topology().tor(0).inject_buffer_accounting_fault(4096);
  });
  EXPECT_THROW(exp.run(), check::CheckFailure);
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight_pfc_pause_rate/manifest.json"))
      << "the anomaly trigger should have fired first";
  // The failure gets its own bundle, and the run names that one.
  EXPECT_EQ(exp.flight_bundle_dir(), dir + "/flight_check_failure");
  bool ok = false;
  const common::Json manifest = common::Json::parse(BundleWriter::read_file(
      exp.flight_bundle_dir(), "manifest.json", &ok));
  ASSERT_TRUE(ok);
  EXPECT_EQ(manifest.find("reason")->as_string(), "check_failure");
  EXPECT_TRUE(std::filesystem::exists(exp.flight_bundle_dir() +
                                      "/failure.json"));
}

TEST(FlightRecorderTest, SameSeedBundlesAreByteIdentical) {
  const std::string dir_a = ::testing::TempDir() + "flight_det_a";
  const std::string dir_b = ::testing::TempDir() + "flight_det_b";
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  const std::string bundle_a = run_faulted(dir_a, /*seed=*/3);
  const std::string bundle_b = run_faulted(dir_b, /*seed=*/3);
  ASSERT_FALSE(bundle_a.empty());
  ASSERT_FALSE(bundle_b.empty());
  std::vector<std::string> files = bundle_files();
  files.push_back("failure.json");
  for (const auto& f : files) {
    bool ok_a = false, ok_b = false;
    const std::string a = BundleWriter::read_file(bundle_a, f, &ok_a);
    const std::string b = BundleWriter::read_file(bundle_b, f, &ok_b);
    ASSERT_TRUE(ok_a && ok_b) << f;
    EXPECT_EQ(a, b) << f << " differs between same-seed runs";
  }
}

TEST(FlightRecorderTest, ArmedButSilentRunMatchesDisarmedBehavior) {
  const auto run_one = [](bool armed) {
    ExperimentConfig cfg = armed_config(7, ::testing::TempDir() + "silent");
    cfg.invariants.level = check::CheckLevel::kOff;
    cfg.obs.flight.armed = armed;
    // Thresholds high enough that a healthy run never trips them.
    cfg.obs.flight.pause_ns_per_sec = 500'000'000;
    cfg.obs.flight.drop_burst = 1000;
    Experiment exp(cfg);
    add_load(exp, 11);
    exp.run();
    EXPECT_TRUE(exp.flight_bundle_dir().empty());
    return std::make_tuple(exp.fct().finished(),
                           exp.topology().total_paused_time(),
                           exp.topology().total_drops());
  };
  // The scan tick is read-only: arming must not perturb the network.
  EXPECT_EQ(run_one(true), run_one(false));
}

TEST(FlightRecorderTest, ReplayRequestRoundTrip) {
  const std::string dir = ::testing::TempDir() + "flight_replay";
  std::filesystem::remove_all(dir);
  const std::string bundle = run_faulted(dir, /*seed=*/9);
  ASSERT_FALSE(bundle.empty());

  ReplayRequest req;
  ASSERT_TRUE(runner::load_replay_request(bundle, &req));
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.trigger_ns, milliseconds(5));
  EXPECT_EQ(req.replay_until_ns, req.trigger_ns + FlightConfig{}.replay_margin);

  // apply_replay rewires the config for a full-tracing window re-run.
  ExperimentConfig cfg = armed_config(/*seed=*/1, dir);
  cfg.invariants.level = check::CheckLevel::kOff;
  runner::apply_replay(cfg, req);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.duration, req.replay_until_ns);
  EXPECT_FALSE(cfg.obs.flight.armed);
  EXPECT_TRUE(cfg.obs.attribution);
  EXPECT_TRUE(cfg.obs.trace.packet && cfg.obs.trace.pfc && cfg.obs.trace.rp);

  // The replay run itself (same workload as the original, no fault) ends
  // at the horizon and writes the anomaly-window outputs into the bundle.
  Experiment replay(cfg);
  add_load(replay, 5);
  replay.run();
  EXPECT_EQ(replay.simulator().now(), req.replay_until_ns);
  ASSERT_TRUE(runner::write_replay_outputs(replay, bundle));
  for (const char* f : {"replay.trace.json", "replay.attribution.json"}) {
    bool ok = false;
    const std::string content = BundleWriter::read_file(bundle, f, &ok);
    EXPECT_TRUE(ok) << f;
    EXPECT_FALSE(content.empty()) << f;
  }
}

TEST(FlightRecorderTest, FullWidthSeedSurvivesTheManifest) {
  // Seeds are uint64: one above INT64_MAX must come back exactly, from
  // the replay request and from both documents that record it.
  const std::uint64_t seed = 0xFFFFFFFFFFFFFFFFull;
  const std::string dir = ::testing::TempDir() + "flight_wide_seed";
  std::filesystem::remove_all(dir);
  const std::string bundle = run_faulted(dir, seed);
  ASSERT_FALSE(bundle.empty());
  ReplayRequest req;
  ASSERT_TRUE(runner::load_replay_request(bundle, &req));
  EXPECT_EQ(req.seed, seed);
  for (const char* f : {"manifest.json", "config.json"}) {
    bool ok = false;
    const common::Json doc =
        common::Json::parse(BundleWriter::read_file(bundle, f, &ok), f);
    ASSERT_TRUE(ok) << f;
    EXPECT_EQ(doc.find("seed")->as_uint64(), seed) << f;
  }
}

TEST(FlightRecorderTest, LoadReplayRequestRejectsMissingBundle) {
  ReplayRequest req;
  EXPECT_FALSE(runner::load_replay_request(
      ::testing::TempDir() + "no_such_bundle", &req));
}

}  // namespace
}  // namespace paraleon
