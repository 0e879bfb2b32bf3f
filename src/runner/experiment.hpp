// Experiment harness: builds a CLOS fabric, installs a tuning scheme and
// workloads, runs the simulation and exposes every result the evaluation
// reports (FCT, runtime series, FSD accuracy, tuning traces, overheads).
//
// This is the one place where scheme wiring lives, so every bench, test
// and example composes the same verified plumbing.
//
// Thread-compatibility invariant: two Experiments may run on two threads.
// An Experiment owns every piece of mutable state it touches — simulator
// and event queue, topology, RNG streams (seeded from config().seed),
// counter registry / trace recorder / profiler (the Simulator's
// Observability bundle), sketches, agents, controllers and trackers.
// There are no mutable statics or globals anywhere under src/ (the
// remaining statics are immutable lookup tables with thread-safe
// initialisation), so concurrent instances never share mutable state and
// need no locking. This is no longer just an audited convention: the
// determinism linter's mutable-global-state rule rejects new mutable
// statics tree-wide, and the lock discipline of the genuinely shared
// layers (exec::ThreadPool/JobSet, the obs registry/trace/scrape/trigger
// classes) is annotated with PARALEON_GUARDED_BY and proven by Clang's
// -Wthread-safety in the static-analysis CI lane (docs/STATIC_ANALYSIS.md).
// Two caveats: (1) one Experiment instance is NOT itself
// thread-safe — drive it from one thread; (2) a run that *writes files*
// (an armed flight recorder) needs per-run output directories to avoid
// colliding on the filesystem. exec::parallel_map (and through it the
// scenario grid runner) and exec::ShadowFleet build on exactly this
// invariant; tests/exec_test.cpp and the TSan CI job enforce it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/acc.hpp"
#include "check/invariant_checker.hpp"
#include "common/json.hpp"
#include "core/controller.hpp"
#include "core/monitor.hpp"
#include "obs/observability.hpp"
#include "runner/scheme.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sketch/elastic_sketch.hpp"
#include "sketch/netflow.hpp"
#include "stats/fct_tracker.hpp"
#include "stats/timeseries.hpp"
#include "workload/alltoall_workload.hpp"
#include "workload/poisson_workload.hpp"

namespace paraleon::runner {

struct ExperimentConfig {
  sim::ClosConfig clos;
  Scheme scheme = Scheme::kParaleon;
  /// Used when scheme == kCustomStatic (e.g. a pretrained setting).
  dcqcn::DcqcnParams custom_params;
  core::ControllerConfig controller;
  sketch::ElasticSketchConfig sketch;
  core::AgentConfig agent;
  baselines::AccConfig acc;
  Time dcqcn_plus_base_interval = microseconds(50);
  Time dcqcn_plus_window = milliseconds(1);
  sketch::NetFlowConfig netflow;
  /// NetFlow exports every N monitor intervals (paper: 1 s at 1 ms MI).
  int netflow_export_every_mi = 1000;
  /// Record per-MI FSD accuracy against ground truth (Figs. 10/11).
  bool track_fsd_accuracy = false;
  Time duration = milliseconds(50);
  std::uint64_t seed = 1;
  /// Runtime invariant checking (off by default so benches pay nothing).
  /// At kBasic/kFull the whole fabric is watched and attached Elastic
  /// Sketches are shadowed with exact counters; a violation throws
  /// check::CheckFailure out of run().
  check::InvariantConfig invariants{.level = check::CheckLevel::kOff};
  /// Observability: trace categories, loop profiling, perf counters.
  /// Everything defaults off.
  obs::ObsConfig obs;
  /// Event-queue backend. kReferenceHeap replays the pre-overhaul binary
  /// heap ordering over the same pooled nodes — the determinism test runs
  /// both and compares run_digest to prove the calendar swap is
  /// order-invisible. Leave at kCalendar everywhere else.
  sim::Simulator::QueueBackend event_queue =
      sim::Simulator::QueueBackend::kCalendar;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  workload::PoissonWorkload& add_poisson(workload::PoissonConfig wcfg);
  workload::AlltoallWorkload& add_alltoall(workload::AlltoallConfig wcfg);

  /// Installs any Workload (the open extension point the scenario engine's
  /// incast/permutation components use). The caller must have set the
  /// workload's flow_id_base to next_workload_flow_base() — the id-space
  /// discipline add_poisson/add_alltoall apply internally.
  workload::Workload& add_workload(std::unique_ptr<workload::Workload> w);

  /// The flow-id base the next added workload must use: bases start at
  /// 1<<32 and advance per workload, so concurrent components and
  /// inject_flow ids never clash.
  std::uint64_t next_workload_flow_base() const {
    return (static_cast<std::uint64_t>(workloads_.size()) + 1) << 32;
  }

  /// Starts one explicit flow (immediately, or at absolute time `at` when
  /// >= now), tracked like any workload flow. Returns its flow id. Ids are
  /// small integers — workload bases start at 1<<32, so they never clash.
  /// This is how tests build deterministic incasts and pause cascades.
  std::uint64_t inject_flow(int src, int dst, std::int64_t size_bytes,
                            Time at = -1);

  /// Runs until `config().duration`. With the flight recorder armed, a
  /// check::CheckFailure escaping the event loop writes a post-mortem
  /// bundle (reason "check_failure") before rethrowing.
  void run();
  void run_until(Time t);

  // ---- accessors ----
  const ExperimentConfig& config() const { return cfg_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  sim::ClosTopology& topology() { return *topo_; }
  /// Null unless config().invariants.level != kOff.
  check::InvariantChecker* invariant_checker() { return checker_.get(); }
  stats::FctTracker& fct() { return *fct_; }
  const stats::FctTracker& fct() const { return *fct_; }
  /// Null unless the scheme runs a PARALEON controller. For the per-pod
  /// scheme this is the first pod's controller; see controllers().
  core::ParaleonController* controller() {
    return controllers_.empty() ? nullptr : controllers_.front().get();
  }
  /// All controllers (one for most schemes, one per pod for kParaleonPerPod).
  const std::vector<std::unique_ptr<core::ParaleonController>>& controllers()
      const {
    return controllers_;
  }

  /// Aggregate goodput (Gbps) and raw RTT (us) per monitor interval, for
  /// every scheme (controller-driven schemes reuse the controller's
  /// series; others are recorded by a probe).
  const stats::TimeSeries& throughput_series() const;
  const stats::TimeSeries& rtt_series() const;
  /// Per-MI FSD accuracy (empty unless track_fsd_accuracy).
  const stats::TimeSeries& fsd_accuracy_series() const {
    return accuracy_series_;
  }
  double mean_fsd_accuracy() const;

  /// The setting PARALEON would freeze for offline use (Fig. 9
  /// pretraining): best-known parameters of the tuner, or the installed
  /// ones when no episode ran.
  dcqcn::DcqcnParams learned_params() const;

  /// All per-hop host hosts convenience: ids 0..host_count-1.
  std::vector<int> all_hosts() const;

  /// Directory of the post-mortem bundle this run wrote last ("" when
  /// none). Anomaly triggers write one bundle per run — the first trigger
  /// wins; later fires only bump the `flight.triggers` counter. A
  /// CheckFailure always writes its own `flight_check_failure` bundle,
  /// which this then names.
  const std::string& flight_bundle_dir() const { return flight_bundle_dir_; }
  /// Anomaly-trigger fires this run (including ones after the bundle).
  std::uint64_t flight_triggers_fired() const {
    return static_cast<std::uint64_t>(flight_trigger_count_.value());
  }

 private:
  void start_flow(const workload::FlowSpec& spec);
  void wire_scheme();
  void schedule_probe();
  // The probe's self-rescheduling ticks, scheduled as `[this] { ... }`.
  void probe_tick();
  void flight_scan_tick();
  void fsd_accuracy_tick();

  ExperimentConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::ClosTopology> topo_;
  std::unique_ptr<stats::FctTracker> fct_;

  std::vector<std::unique_ptr<workload::Workload>> workloads_;

  // Scheme machinery (subset populated depending on cfg_.scheme).
  std::vector<std::unique_ptr<sim::SketchHook>> sketches_;
  // Declared after sim_ and sketches_: the checker's destructor detaches
  // its simulator hook and the sketch reset hooks, so it must go first.
  std::unique_ptr<check::InvariantChecker> checker_;
  std::vector<std::unique_ptr<core::SwitchAgent>> agents_;
  std::vector<std::unique_ptr<core::ParaleonController>> controllers_;
  std::vector<std::unique_ptr<baselines::AccAgent>> acc_agents_;

  // Probe for schemes without a controller + accuracy tracking.
  std::unique_ptr<core::MetricCollector> probe_collector_;
  stats::TimeSeries probe_tput_;
  stats::TimeSeries probe_rtt_;
  mutable stats::TimeSeries merged_rtt_;  // per-pod RTT view, built lazily
  stats::TimeSeries accuracy_series_;

  // Flight recorder: anomaly detectors fed by a read-only scan tick (the
  // scan must never mutate the network, so an armed-but-silent run stays
  // byte-identical in behavior to a disarmed one).
  obs::AnomalyTriggers flight_triggers_;
  obs::Counter flight_trigger_count_;
  std::string flight_bundle_dir_;
  std::uint64_t injected_flow_seq_ = 0;
};

/// Order-stable FNV-1a digest over every observable telemetry surface of a
/// finished run: simulator event/clock counters, per-host NIC and CNP
/// counters, per-switch MMU/ECN/PFC counters and port byte counts, the
/// completed-flow table (sorted by flow id) and the runtime series. Two
/// same-seed runs must produce the same value byte-for-byte; the
/// determinism regression test enforces exactly that.
std::uint64_t run_digest(Experiment& exp);

/// One deterministic JSON document per run: the full counter registry,
/// trace-recorder totals, every controller's tuning-episode timeline and
/// the FCT slowdown summary. Identical seeds yield byte-identical output.
common::Json obs_report_json(const Experiment& exp);

/// The FCT slowdown summary alone: overall and per-size-bucket
/// count/mean/p50/p95/p99/p999 of slowdown-vs-ideal.
common::Json fct_report_json(const stats::FctTracker& fct);

/// One slowdown summary's mean/p50/p95/p99/p999 (the grid document's
/// per-cell form; fct_report_json prepends the count).
common::Json slowdown_json(const stats::FctTracker::SlowdownStats& s);

}  // namespace paraleon::runner
