// The per-run observability context: one counter registry, one trace
// recorder, and one loop profiler, owned by the Simulator so that every
// component holding a `Simulator*` can register instruments and emit
// trace events without extra plumbing.
#pragma once

#include "common/time.hpp"
#include "obs/attribution.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/perf.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace paraleon::obs {

/// Experiment-level observability knobs (everything defaults off, so an
/// unconfigured run pays one branch per potential trace site and nothing
/// else).
struct ObsConfig {
  TraceConfig trace;
  /// Wall-clock self-profiling of the event loop (nondeterministic output;
  /// read through LoopProfiler::by_tag, never digested).
  bool profile_loop = false;
  /// Always-cheap event-loop telemetry (obs::PerfMonitor): deterministic
  /// scheduling/allocation counters plus a run wall window. Reported as
  /// the "perf" section of runner::obs_report_json; never digested.
  bool perf_counters = false;
  /// Record pause causality spans and per-flow blocked / rate-limited time
  /// (obs::AttributionEngine; reported via runner::attribution_json).
  bool attribution = false;
  /// Flight-recorder arming: anomaly triggers + post-mortem bundles.
  FlightConfig flight;
};

class Observability {
 public:
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  LoopProfiler& profiler() { return profiler_; }
  const LoopProfiler& profiler() const { return profiler_; }
  PerfMonitor& perf() { return perf_; }
  const PerfMonitor& perf() const { return perf_; }
  AttributionEngine& attribution() { return attribution_; }
  const AttributionEngine& attribution() const { return attribution_; }

 private:
  Registry registry_;
  TraceRecorder trace_;
  LoopProfiler profiler_;
  PerfMonitor perf_;
  AttributionEngine attribution_;
};

}  // namespace paraleon::obs
