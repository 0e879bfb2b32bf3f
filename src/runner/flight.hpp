// Flight-recorder bundle I/O and the attribution report.
//
// A post-mortem bundle is a directory written when an anomaly trigger fires
// or a check::CheckFailure escapes the event loop:
//
//   flight_<reason>/
//     manifest.json      schema, reason, trigger time, seed, replay
//                        horizon, engine state, file list
//     config.json        human-readable experiment configuration
//     counters.json      full counter-registry snapshot
//     trace.json         trace-ring tail (Perfetto-loadable)
//     ports.json         per-switch per-port queue/pause state + host uplinks
//     episodes.json      tuning-episode timelines
//     attribution.json   pause spans/trees + per-flow FCT decomposition
//     perf.json          event-loop perf section (paraleon.perf.v1)
//     failure.json       the CheckFailure (reason "check_failure" only)
//
// Replay: runs are byte-deterministic in the seed, so a replay needs only
// the manifest's `seed` and `replay_until_ns` — the invoking bench/test
// reconstructs its own ExperimentConfig, applies `apply_replay`, and
// re-runs with every trace category forced on up to just past the
// trigger, turning any anomaly into a full Perfetto trace after the fact.
// Every file is written with common::Json and read back with its parser.
#pragma once

#include <string>

#include "check/check.hpp"
#include "common/json.hpp"
#include "runner/experiment.hpp"

namespace paraleon::runner {

/// The attribution report: the engine's pause spans/trees plus a per-flow
/// completion-time decomposition (serialization+propagation ideal /
/// RP-rate-limited / PFC-blocked / residual queueing) for the top HoL
/// victims. Flushes in-flight accumulators first; safe to call repeatedly.
/// Deterministic for a given seed.
common::Json attribution_json(Experiment& exp, std::size_t top_k = 10);

/// Writes a post-mortem bundle under config().obs.flight.dir. Returns the
/// bundle directory, or "" if the filesystem refused. `failure` adds
/// failure.json (reason "check_failure").
std::string write_flight_bundle(Experiment& exp, const std::string& reason,
                                const check::CheckFailure* failure = nullptr);

/// What --replay-flight needs from a bundle.
struct ReplayRequest {
  std::uint64_t seed = 0;
  Time trigger_ns = 0;
  Time replay_until_ns = 0;
};

/// Reads the seed, trigger time and replay horizon from
/// `bundle_dir`/manifest.json. False if missing or malformed.
bool load_replay_request(const std::string& bundle_dir, ReplayRequest* out);

/// Rewrites `cfg` for a replay run: the bundle's seed, duration clamped to
/// the replay horizon, every trace category on with a deep ring, triggers
/// disarmed (the anomaly would just re-fire) and attribution enabled.
void apply_replay(ExperimentConfig& cfg, const ReplayRequest& req);

/// Dumps the finished replay into the bundle: replay.trace.json (the full
/// Perfetto trace of the trigger window) and replay.attribution.json.
bool write_replay_outputs(Experiment& exp, const std::string& bundle_dir);

}  // namespace paraleon::runner
