// Determinism regression: a run is a pure function of its seed. Two
// same-seed experiments must produce byte-for-byte identical telemetry
// (hashed by runner::run_digest), and the invariant checker must observe
// without perturbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hpp"
#include "core/param_space.hpp"
#include "core/sa_tuner.hpp"
#include "exec/shadow_fleet.hpp"
#include "obs/episode_log.hpp"
#include "runner/experiment.hpp"
#include "scenario/grid_runner.hpp"

namespace paraleon {
namespace {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

ExperimentConfig base_config(Scheme scheme, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 2;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(10);
  cfg.clos.prop_delay = microseconds(2);
  cfg.scheme = scheme;
  cfg.duration = milliseconds(30);
  cfg.seed = seed;
  return cfg;
}

std::uint64_t digest_of_run(ExperimentConfig cfg, std::uint64_t wl_seed) {
  Experiment exp(std::move(cfg));
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::solar_rpc_distribution();
  w.load = 0.4;
  w.stop = milliseconds(25);
  w.seed = wl_seed;
  exp.add_poisson(w);
  exp.run();
  return runner::run_digest(exp);
}

class DeterminismTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(DeterminismTest, SameSeedSameDigest) {
  const auto a = digest_of_run(base_config(GetParam(), 42), 7);
  const auto b = digest_of_run(base_config(GetParam(), 42), 7);
  EXPECT_EQ(a, b) << "same-seed runs diverged";
}

TEST_P(DeterminismTest, DifferentSeedDifferentDigest) {
  const auto a = digest_of_run(base_config(GetParam(), 42), 7);
  const auto b = digest_of_run(base_config(GetParam(), 43), 7);
  EXPECT_NE(a, b) << "the seed does not reach the run";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DeterminismTest,
    ::testing::Values(Scheme::kDefaultStatic, Scheme::kParaleon),
    [](const ::testing::TestParamInfo<Scheme>& param_info) {
      return param_info.param == Scheme::kDefaultStatic ? "DefaultStatic"
                                                        : "Paraleon";
    });

TEST(Determinism, InvariantCheckerIsObservationOnly) {
  // Running with the checker at kFull must not change a single telemetry
  // byte relative to kOff — the hook observes, never steers.
  auto plain = base_config(Scheme::kParaleon, 5);
  auto checked = base_config(Scheme::kParaleon, 5);
  checked.invariants.level = check::CheckLevel::kFull;
  EXPECT_EQ(digest_of_run(std::move(plain), 9),
            digest_of_run(std::move(checked), 9));
}

TEST(Determinism, DifferentWorkloadSeedDifferentDigest) {
  const auto a = digest_of_run(base_config(Scheme::kDefaultStatic, 42), 7);
  const auto b = digest_of_run(base_config(Scheme::kDefaultStatic, 42), 8);
  EXPECT_NE(a, b);
}

// ---- event-engine equivalence ----

using Backend = sim::Simulator::QueueBackend;

std::uint64_t poisson_digest(Scheme scheme, Backend backend) {
  ExperimentConfig cfg = base_config(scheme, 42);
  cfg.event_queue = backend;
  return digest_of_run(std::move(cfg), 7);
}

// Elephant-only round-based collective: every host sends to every other,
// so ECMP, serialisation and propagation dominate the event mix.
std::uint64_t alltoall_digest(Backend backend) {
  ExperimentConfig cfg = base_config(Scheme::kDefaultStatic, 42);
  cfg.duration = milliseconds(20);
  cfg.event_queue = backend;
  Experiment exp(std::move(cfg));
  workload::AlltoallConfig a2a;
  a2a.workers = exp.all_hosts();
  a2a.flow_size = 128 * 1024;
  a2a.off_period = milliseconds(1);
  exp.add_alltoall(a2a);
  exp.run();
  return runner::run_digest(exp);
}

// A PFC-heavy run: a tiny shared buffer (the dynamic XOFF threshold
// pfc_alpha * headroom trips almost immediately) + a synchronized incast,
// so pause/resume (and the dedup'd pause-kick relay) fire constantly,
// with kFull invariants watching every event.
std::uint64_t pfc_storm_digest(Backend backend) {
  ExperimentConfig cfg = base_config(Scheme::kDefaultStatic, 21);
  cfg.clos.switch_cfg.buffer_bytes = 96 * 1024;  // tiny shared MMU
  cfg.duration = milliseconds(8);
  cfg.invariants.level = check::CheckLevel::kFull;
  cfg.event_queue = backend;
  Experiment exp(std::move(cfg));
  for (int src = 1; src < 8; ++src) {
    exp.inject_flow(src, 0, 512 * 1024);
  }
  exp.run();
  // The scenario only counts if PFC actually stormed.
  std::uint64_t pauses = 0;
  for (int h = 0; h < exp.topology().host_count(); ++h) {
    pauses += exp.topology().host(h).uplink().pause_frames_received();
  }
  EXPECT_GT(pauses, 0u) << "incast never tripped PFC; deadband too wide";
  return runner::run_digest(exp);
}

TEST(Determinism, CalendarAndReferenceHeapBackendsDigestIdentically) {
  // The calendar queue (its radix-sorted bucket drain included) must be
  // invisible to fire order: the same run on the binary-heap ordering
  // (kReferenceHeap) and on the calendar backend must hash to the same
  // digest, byte for byte — on Poisson traffic under both schemes, an
  // alltoall cell and a PFC storm.
  for (const Scheme scheme : {Scheme::kDefaultStatic, Scheme::kParaleon}) {
    EXPECT_EQ(poisson_digest(scheme, Backend::kCalendar),
              poisson_digest(scheme, Backend::kReferenceHeap))
        << "backends diverged under scheme " << static_cast<int>(scheme);
  }
  EXPECT_EQ(alltoall_digest(Backend::kCalendar),
            alltoall_digest(Backend::kReferenceHeap))
      << "backends diverged on the alltoall cell";
  EXPECT_EQ(pfc_storm_digest(Backend::kCalendar),
            pfc_storm_digest(Backend::kReferenceHeap))
      << "backends diverged on the PFC storm";
}

TEST(Determinism, PfcStormScenarioIsDeterministicAndInvariantClean) {
  EXPECT_EQ(pfc_storm_digest(Backend::kCalendar),
            pfc_storm_digest(Backend::kCalendar));
}

// ---- observability determinism ----

ExperimentConfig obs_config(std::uint64_t seed) {
  ExperimentConfig cfg = base_config(Scheme::kParaleon, seed);
  cfg.obs.trace = obs::TraceConfig::all_on(1u << 14);
  return cfg;
}

struct ObsDump {
  std::uint64_t digest = 0;
  std::string trace_json;
  std::string counters_json;
  std::string report_json;
};

ObsDump obs_dump_of_run(ExperimentConfig cfg, std::uint64_t wl_seed) {
  Experiment exp(std::move(cfg));
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::solar_rpc_distribution();
  w.load = 0.4;
  w.stop = milliseconds(25);
  w.seed = wl_seed;
  exp.add_poisson(w);
  exp.run();
  ObsDump d;
  d.digest = runner::run_digest(exp);
  d.trace_json = exp.simulator().obs().trace().to_json();
  d.counters_json = exp.simulator().obs().registry().to_json().dump();
  d.report_json = runner::obs_report_json(exp).dump();
  return d;
}

TEST(Determinism, SameSeedByteIdenticalObsDumps) {
  const ObsDump a = obs_dump_of_run(obs_config(42), 7);
  const ObsDump b = obs_dump_of_run(obs_config(42), 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.trace_json, b.trace_json) << "trace JSON diverged";
  EXPECT_EQ(a.counters_json, b.counters_json) << "counter dump diverged";
  EXPECT_EQ(a.report_json, b.report_json) << "obs report diverged";
  // The dumps actually contain events (an empty trace is trivially equal).
  EXPECT_NE(a.trace_json.find("pkt.tx"), std::string::npos);
  EXPECT_NE(a.counters_json.find("cnp.sent"), std::string::npos);
}

TEST(Determinism, PerfCountersDoNotPerturbDigest) {
  // The PerfMonitor observes scheduling, never schedules: enabling it
  // must leave run_digest byte-identical (its counters live outside the
  // registry and its wall window is never digested).
  ExperimentConfig on_cfg = base_config(Scheme::kParaleon, 42);
  on_cfg.obs.perf_counters = true;
  const auto off = digest_of_run(base_config(Scheme::kParaleon, 42), 7);
  const auto on = digest_of_run(std::move(on_cfg), 7);
  EXPECT_EQ(off, on) << "perf telemetry perturbed the run digest";
}

TEST(Determinism, TracingIsObservationOnly) {
  // Enabling every trace category must not perturb the simulated run:
  // the network-visible telemetry (flow completions, CNP counts, switch
  // drops/marks) must match the all-off run exactly. (run_digest itself
  // is not comparable across the two configurations — it hashes the
  // trace events, which the all-off run does not record.)
  const auto run = [](bool with_obs) {
    ExperimentConfig cfg = with_obs ? obs_config(5)
                                    : base_config(Scheme::kParaleon, 5);
    Experiment exp(std::move(cfg));
    workload::PoissonConfig w;
    w.hosts = exp.all_hosts();
    w.sizes = &workload::solar_rpc_distribution();
    w.load = 0.4;
    w.stop = milliseconds(25);
    w.seed = 9;
    exp.add_poisson(w);
    exp.run();
    // Finished and started flows, each host's CNPs, then each ToR's ECN
    // marks and drops.
    std::vector<std::uint64_t> out = {
        static_cast<std::uint64_t>(exp.fct().finished()),
        static_cast<std::uint64_t>(exp.fct().started())};
    for (int h = 0; h < exp.topology().host_count(); ++h) {
      out.push_back(
          static_cast<std::uint64_t>(exp.topology().host(h).cnps_sent()));
    }
    for (int t = 0; t < exp.topology().tor_count(); ++t) {
      out.push_back(
          static_cast<std::uint64_t>(exp.topology().tor(t).ecn_marks()));
      out.push_back(static_cast<std::uint64_t>(exp.topology().tor(t).drops()));
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- parallel execution determinism ----

TEST(Determinism, SeedAxisGridDigestsByteIdenticalAcrossWorkerCounts) {
  // A seed sweep is a grid with a `seed` axis; its per-cell run_digests
  // are a pure function of the seeds, whatever the worker count. jobs=1 is
  // the serial for-loop; 2 and 8 exercise real pools (8 > cell count
  // forces the more-workers-than-jobs path).
  const scenario::Scenario sc = scenario::parse_scenario_text(R"({
    "name": "seed_axis",
    "duration_ms": 10,
    "topology": {"kind": "spine_leaf", "tors": 2, "spines": 2,
                 "hosts_per_tor": 4, "host_gbps": 10, "fabric_gbps": 10,
                 "prop_delay_us": 2},
    "scheme": {"name": "paraleon"},
    "workload": [{"name": "rpc", "kind": "poisson", "sizes": "solar_rpc",
                  "load": 0.4, "stop_ms": 8}],
    "metric": {"name": "flows_finished"},
    "sweep": {"axes": [{"key": "seed", "values": [101, 102, 103, 104]}]}
  })");
  scenario::GridOptions opts;
  opts.jobs = 1;
  const scenario::GridOutcome serial = scenario::run_grid(sc, opts);
  ASSERT_EQ(serial.results().size(), 4u);
  for (const int jobs : {2, 8}) {
    opts.jobs = jobs;
    const scenario::GridOutcome parallel = scenario::run_grid(sc, opts);
    ASSERT_EQ(parallel.results().size(), serial.results().size());
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
      EXPECT_EQ(parallel.results()[i].seed, 101u + i);
      EXPECT_EQ(parallel.results()[i].digest, serial.results()[i].digest)
          << "jobs=" << jobs << " seed=" << serial.results()[i].seed;
    }
    EXPECT_EQ(parallel.to_json(false), serial.to_json(false))
        << "jobs=" << jobs;
  }
}

exec::ShadowWindow shadow_window() {
  exec::ShadowWindow w;
  w.base = base_config(Scheme::kCustomStatic, 55);
  w.base.duration = milliseconds(5);
  w.setup = [](Experiment& exp) {
    workload::PoissonConfig wl;
    wl.hosts = exp.all_hosts();
    wl.sizes = &workload::solar_rpc_distribution();
    wl.load = 0.35;
    wl.stop = milliseconds(5);
    wl.seed = 55;
    exp.add_poisson(wl);
  };
  w.measure_from = milliseconds(1);
  return w;
}

TEST(Determinism, ShadowFleetK1ReproducesSerialTunerEpisodeLogExactly) {
  // Drive one SaTuner the old way — step() per evaluation, logging trials
  // with the controller's conventions — and compare against ShadowFleet
  // with fleet_size 1: same seed, same window, so the RNG draw sequence
  // and therefore every candidate, acceptance, temperature and the final
  // best must match byte for byte in the episode-log JSON.
  const exec::ShadowWindow w = shadow_window();
  const dcqcn::DcqcnParams start = dcqcn::scaled_for_line_rate(
      dcqcn::default_params(), gbps(100), gbps(10));
  core::SaConfig sa_cfg;
  sa_cfg.total_iter_num = 3;
  sa_cfg.cooling_rate = 0.3;
  const std::uint64_t tuner_seed = 99;

  // Serial reference.
  core::SaTuner sa(
      core::ParamSpace::standard(w.base.clos.host_link,
                                 w.base.clos.switch_cfg.buffer_bytes),
      sa_cfg, tuner_seed);
  obs::EpisodeLog serial_log;
  sa.begin_episode(start);
  const double u0 = exec::ShadowFleet::evaluate(w, start);
  dcqcn::DcqcnParams next = sa.step(u0, 0.5);
  serial_log.begin(0, "shadow", 0.0, start);
  serial_log.add_trial(
      {0, sa.iterations_done(), sa.temperature(), start, u0, true});
  Time clock = 1;
  int serial_evals = 1;
  while (sa.active()) {
    const dcqcn::DcqcnParams measured = next;
    const double u = exec::ShadowFleet::evaluate(w, measured);
    ++serial_evals;
    next = sa.step(u, 0.5);
    serial_log.add_trial({clock++, sa.iterations_done(), sa.temperature(),
                          measured, u, sa.last_accepted()});
  }
  serial_log.close(clock, sa.best(), sa.best_utility());

  // Shadow fleet, K = 1.
  exec::ShadowFleetConfig fcfg;
  fcfg.sa = sa_cfg;
  fcfg.fleet_size = 1;
  fcfg.jobs = 1;
  fcfg.seed = tuner_seed;
  const auto fleet = exec::ShadowFleet(fcfg).tune(w, start);

  EXPECT_EQ(fleet.episodes.to_json().dump(), serial_log.to_json().dump());
  EXPECT_EQ(fleet.evaluations, serial_evals);
  EXPECT_DOUBLE_EQ(fleet.best_utility, sa.best_utility());
  EXPECT_EQ(obs::params_to_json(fleet.best).dump(),
            obs::params_to_json(sa.best()).dump());
}

}  // namespace
}  // namespace paraleon
