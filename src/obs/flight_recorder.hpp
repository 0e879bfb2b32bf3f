// Flight-recorder support types: anomaly triggers and the post-mortem
// bundle writer.
//
// The runner arms `AnomalyTriggers` with thresholds and feeds it periodic
// samples of cumulative run health (total PFC pause time, MMU drops, SA
// reverts, controller utility); the first sample that crosses a threshold
// names the anomaly, and `runner::Experiment` then uses `BundleWriter` to
// dump a self-contained post-mortem directory: trace-ring tail, counter
// snapshot, per-port state, event-queue head, episode log, attribution,
// and the exact seed + horizon needed to replay the run with full tracing
// (`--replay-flight`). A `check::CheckFailure` escaping the event loop
// takes the same path with reason "check_failure".
//
// Triggers read cumulative telemetry only — the scan must never mutate the
// network, so an armed-but-silent recorder leaves behavior byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/time.hpp"

namespace paraleon::obs {

/// Simulated-time interval between trigger scans.
inline constexpr Time kFlightScanInterval = 1'000'000;  // 1 ms
/// Replay horizon: trigger time plus this margin.
inline constexpr Time kFlightReplayMargin = 2'000'000;  // 2 ms

/// Flight-recorder arming knobs. Everything defaults off / disarmed.
struct FlightConfig {
  /// Master switch: scan for anomalies and dump a bundle on trigger or on
  /// an escaping CheckFailure.
  bool armed = false;
  /// Directory under which `flight_<reason>/` bundles are written.
  std::string dir = "flight";
  /// Fire when total PFC pause time grows faster than this many ns of
  /// pause per second of simulated time (<= 0: disabled).
  std::int64_t pause_ns_per_sec = 0;
  /// Fire when MMU drops grow by more than this many packets between two
  /// scans (<= 0: disabled).
  std::int64_t drop_burst = 0;
  /// Fire on any simulated-annealing revert.
  bool on_sa_revert = false;
  /// Fire when controller utility falls below this floor (unset:
  /// disabled).
  std::optional<double> utility_floor;
};

/// Stateful threshold detectors over cumulative health samples.
class AnomalyTriggers {
 public:
  struct Sample {
    Time t = 0;
    std::int64_t total_paused_ns = 0;
    std::int64_t drops = 0;
    std::int64_t reverts = 0;
    double utility = 0.0;
    bool utility_valid = false;
  };

  void configure(const FlightConfig& cfg) PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    cfg_ = cfg;
  }
  /// The returned reference stays valid while the triggers live; read it
  /// only while configuration has quiesced (armed runs never reconfigure).
  const FlightConfig& config() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return cfg_;
  }

  /// Feeds one sample; returns the name of the trigger that fired, or
  /// nullptr. Rate triggers compare against the previous sample, so the
  /// first sample only seeds state.
  const char* update(const Sample& s) PARALEON_EXCLUDES(mu_);

  void reset() PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    has_prev_ = false;
  }

 private:
  mutable common::Mutex mu_;
  FlightConfig cfg_ PARALEON_GUARDED_BY(mu_);
  Sample prev_ PARALEON_GUARDED_BY(mu_);
  bool has_prev_ PARALEON_GUARDED_BY(mu_) = false;
};

/// Creates a bundle directory and writes named files into it. Thin
/// filesystem shim so the runner's bundle logic stays testable.
class BundleWriter {
 public:
  /// Creates `dir` (and parents). Returns false on failure.
  static bool create_dir(const std::string& dir);
  /// Writes `content` to `dir/name`. Returns false on failure.
  static bool write_file(const std::string& dir, const std::string& name,
                         const std::string& content);
  /// Reads `dir/name` fully; empty string and `ok=false` on failure.
  static std::string read_file(const std::string& dir,
                               const std::string& name, bool* ok = nullptr);
};

}  // namespace paraleon::obs
