// Flight recorder: anomaly-trigger thresholds, dump-on-CheckFailure with a
// complete replayable bundle whose files pass their schema checks (each on
// its own and across files), byte-identical same-seed bundles, and the
// replay request read back from manifest.json.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.hpp"
#include "common/json.hpp"
#include "doc_checks.hpp"
#include "obs/flight_recorder.hpp"
#include "runner/experiment.hpp"
#include "runner/flight.hpp"

namespace paraleon {
namespace {

using common::Json;
using doc_checks::at;
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

/// Reads and parses `file` of `bundle`.
Json read_doc(const std::string& bundle, const std::string& file) {
  bool ok = false;
  const std::string text = BundleWriter::read_file(bundle, file, &ok);
  EXPECT_TRUE(ok) << file << " missing from " << bundle;
  return Json::parse(text, file);
}

/// A paraleon.ports.v1 snapshot of the fabric `config` describes: one
/// entry per ToR and leaf with every port's queue and pause state, and one
/// uplink per host.
void check_ports(const Json& ports, const Json& config) {
  EXPECT_EQ(at(ports, "schema").as_string(), "paraleon.ports.v1");
  std::int64_t tors = 0;
  std::int64_t leaves = 0;
  for (const Json& sw : at(ports, "switches").items()) {
    const std::string& kind = at(sw, "kind").as_string();
    tors += kind == "tor" ? 1 : 0;
    leaves += kind == "leaf" ? 1 : 0;
    for (const char* key : {"index", "id", "buffer_used"}) {
      EXPECT_TRUE(at(sw, key).is_integer()) << key;
    }
    EXPECT_FALSE(at(sw, "ports").items().empty());
    for (const Json& port : at(sw, "ports").items()) {
      for (const char* key : {"port", "queue_bytes", "paused_ns",
                              "ingress_bytes", "tx_data_bytes"}) {
        EXPECT_TRUE(at(port, key).is_integer()) << key;
      }
      EXPECT_TRUE(at(port, "data_paused").is_bool());
      EXPECT_TRUE(at(port, "pause_latched").is_bool());
    }
  }
  EXPECT_EQ(tors, at(config, "n_tor").as_int64());
  EXPECT_EQ(leaves, at(config, "n_leaf").as_int64());
  const auto& hosts = at(ports, "hosts").items();
  EXPECT_EQ(static_cast<std::int64_t>(hosts.size()),
            at(config, "n_tor").as_int64() *
                at(config, "hosts_per_tor").as_int64());
  for (const Json& host : hosts) {
    at(host, "id").as_int64();
    const Json& uplink = at(host, "uplink");
    for (const char* key : {"queue_bytes", "paused_ns", "tx_data_bytes"}) {
      EXPECT_TRUE(at(uplink, key).is_integer()) << key;
    }
    EXPECT_TRUE(at(uplink, "data_paused").is_bool());
  }
}

/// A post-mortem bundle written for `reason`, across its files: the
/// manifest lists only files that exist, failure.json exactly when the
/// reason is check_failure, a replay horizon past the trigger and the
/// config's seed; every file passes its own schema check. The ring tail
/// may be empty: the original run need not trace, which is what replay is
/// for.
void check_bundle(const std::string& bundle, const std::string& reason) {
  SCOPED_TRACE(bundle);
  const Json manifest = read_doc(bundle, "manifest.json");
  EXPECT_EQ(at(manifest, "schema").as_string(), "paraleon.flight.v1");
  EXPECT_EQ(at(manifest, "reason").as_string(), reason);
  for (const char* key : {"events_executed", "queue_depth"}) {
    EXPECT_TRUE(doc_checks::is_count(at(manifest, key))) << key;
  }
  at(manifest, "next_event_ns").as_int64();
  EXPECT_GT(at(manifest, "replay_until_ns").as_int64(),
            at(manifest, "trigger_ns").as_int64())
      << "the replay horizon does not extend past the trigger";
  bool lists_failure = false;
  for (const Json& file : at(manifest, "files").items()) {
    const std::string& name = file.as_string();
    EXPECT_TRUE(std::filesystem::is_regular_file(bundle + "/" + name))
        << "the manifest lists " << name << " but the bundle lacks it";
    lists_failure |= name == "failure.json";
  }
  EXPECT_EQ(lists_failure, reason == "check_failure");

  const Json config = read_doc(bundle, "config.json");
  for (const char* key : {"duration_ns", "n_tor", "n_leaf", "hosts_per_tor",
                          "prop_delay_ns", "buffer_bytes",
                          "pfc_pause_duration_ns"}) {
    EXPECT_TRUE(at(config, key).is_integer()) << key;
  }
  for (const char* key : {"host_link_bps", "fabric_link_bps", "pfc_alpha"}) {
    EXPECT_TRUE(at(config, key).is_number()) << key;
  }
  EXPECT_EQ(at(config, "seed").as_uint64(), at(manifest, "seed").as_uint64());
  EXPECT_EQ(at(config, "scheme").as_string(),
            at(manifest, "scheme").as_string());

  doc_checks::check_registry(read_doc(bundle, "counters.json"));
  doc_checks::check_trace(read_doc(bundle, "trace.json"),
                          /*allow_empty=*/true);
  check_ports(read_doc(bundle, "ports.json"), config);
  doc_checks::check_episodes(read_doc(bundle, "episodes.json"));
  doc_checks::check_attribution(read_doc(bundle, "attribution.json"));
  doc_checks::check_perf(read_doc(bundle, "perf.json"));
  if (lists_failure) {
    const Json failure = read_doc(bundle, "failure.json");
    for (const char* key : {"expression", "file", "message"}) {
      at(failure, key).as_string();
    }
    EXPECT_GT(at(failure, "line").as_int64(), 0);
  }
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
  EXPECT_NE(at(read_doc(bundle, "failure.json"), "message")
                .as_string()
                .find("not conserved"),
            std::string::npos);
  // And the manifest names the reason.
  check_bundle(bundle, "check_failure");
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
  // The failure gets its own bundle, and the run names that one; each
  // bundle's manifest names its own reason.
  EXPECT_EQ(exp.flight_bundle_dir(), dir + "/flight_check_failure");
  check_bundle(dir + "/flight_pfc_pause_rate", "pfc_pause_rate");
  check_bundle(exp.flight_bundle_dir(), "check_failure");
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
  EXPECT_EQ(req.replay_until_ns, req.trigger_ns + obs::kFlightReplayMargin);

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
  // The replay traced every category: its trace holds the window.
  EXPECT_GT(doc_checks::check_trace(read_doc(bundle, "replay.trace.json")),
            0u);
  doc_checks::check_attribution(read_doc(bundle, "replay.attribution.json"));
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
