// Shared configuration for the paper-reproduction benches.
//
// The paper's NS3 fabric is 8 ToR x 4 leaf x 128 hosts, all 100 Gbps, 4:1
// oversubscribed, 5 us links, 12 MB switch buffers. The benches keep the
// topology shape and oversubscription but scale to 64 hosts at 10/20 Gbps
// so every table and figure regenerates on a laptop in minutes. DCQCN
// presets are rescaled with dcqcn::scaled_for_line_rate (see DESIGN.md).
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "scenario/grid_runner.hpp"
#include "stats/csv_export.hpp"
#include "stats/percentile.hpp"

namespace paraleon::bench {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

/// The machine fingerprint the scaling notes print and the committed
/// BENCH_*.json baselines carry: wall-clock metrics are only comparable
/// between runs whose fingerprints match (tools/bench_trend.py warns on a
/// mismatch), and deterministic metrics are attributable to a toolchain.
inline std::string compiler_id() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

/// "Release"/"Debug" from NDEBUG — the axis that actually moves bench
/// numbers, independent of the exact CMAKE_BUILD_TYPE spelling.
inline const char* build_type() {
#ifdef NDEBUG
  return "Release";
#else
  return "Debug";
#endif
}

inline unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// The standard machine-parseable scaling note every bench header emits:
/// the fabric dimensions as key=value pairs derived from the config the
/// bench actually runs (several benches used to format this by hand, and
/// the hand-written numbers drifted), plus the machine fingerprint, then
/// `;` and the bench's free-text comparison to the paper setup.
inline std::string scaling_note(const ExperimentConfig& cfg,
                                const std::string& extra = "") {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "hosts=%d tor=%d leaf=%d host_gbps=%g fabric_gbps=%g "
                "buffer_mb=%g duration_ms=%g seed=%llu cc=%s build=%s "
                "hw_threads=%u",
                cfg.clos.n_tor * cfg.clos.hosts_per_tor, cfg.clos.n_tor,
                cfg.clos.n_leaf, to_gbps(cfg.clos.host_link),
                to_gbps(cfg.clos.fabric_link),
                static_cast<double>(cfg.clos.switch_cfg.buffer_bytes) /
                    (1024.0 * 1024.0),
                to_ms(cfg.duration),
                static_cast<unsigned long long>(cfg.seed),
                compiler_id().c_str(), build_type(), hardware_threads());
  std::string note = buf;
  if (!extra.empty()) note += "; " + extra;
  return note;
}

/// Observability flags shared by the benches: `--trace` turns on every
/// trace category plus per-MI counter scraping, `--tiny` asks the bench
/// for its smallest configuration (CI smoke), `--obs-out DIR` selects
/// where the JSON dumps land (default: current directory). Flight-recorder
/// flags: `--flight` arms the anomaly triggers (bundles land under
/// `<out_dir>/flight`), `--flight-fault` additionally injects the seeded
/// buffer-accounting fault mid-run so CI can trip a dump on demand, and
/// `--replay-flight BUNDLE_DIR` re-runs a bundle's seed with all tracing
/// on instead of the bench's normal run.
///
/// Parallel-execution flags: `--jobs N` sets the thread-pool worker count
/// benches pass to exec::parallel_map (0 = one per hardware thread,
/// default 1 = serial), and `--sweep N` asks a sweep-capable bench (fig8)
/// to run N seeds as a `seed` grid axis serial-then-parallel and verify
/// the grid documents match. Both take a non-negative integer; anything
/// else is left unconsumed, so the bench exits 2 with its usage line.
///
/// Perf-trend flags: `--perf` enables the event-loop PerfMonitor
/// (obs::PerfMonitor counters in the run's "perf" report section), and
/// `--perf-out FILE` additionally writes the bench's metrics as one
/// `paraleon.bench.v1` JSON document — the shape the committed
/// BENCH_*.json baselines use and tools/bench_trend.py compares.
struct ObsCli {
  bool trace = false;
  bool tiny = false;
  bool flight = false;
  bool flight_fault = false;
  bool perf = false;
  std::string replay_bundle;  // empty = no replay requested
  std::string out_dir = ".";
  std::string perf_out;  // empty = no bench-trend artifact
  int jobs = 1;          // parallel_map worker count (0 = hardware)
  int sweep = 0;         // 0 = no sweep mode requested
};

/// Path of a committed scenarios/ file. The bench CMake bakes the repo's
/// scenarios/ directory in as PARALEON_SCENARIO_DIR so the benches find
/// their scenario from any build or working directory; the relative
/// fallback keeps ad-hoc compiles run from the repo root working.
inline std::string scenario_path(const std::string& file) {
#ifdef PARALEON_SCENARIO_DIR
  return std::string(PARALEON_SCENARIO_DIR) + "/" + file;
#else
  return "scenarios/" + file;
#endif
}

/// Parses a non-negative decimal int (the whole string, nothing else).
inline bool parse_count(const char* text, int* out) {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

/// Consumes the ObsCli flag at argv[*i] (and its value) into `cli`,
/// advancing *i past the value. Returns false, consuming nothing, for an
/// argument the shared parser does not own: an unknown one, a value flag
/// without its value, or a `--jobs`/`--sweep` value that is not a
/// non-negative integer.
inline bool consume_obs_flag(ObsCli& cli, int argc, char** argv, int* i) {
  const char* a = argv[*i];
  const char* value = *i + 1 < argc ? argv[*i + 1] : nullptr;
  const auto is = [a](const char* flag) { return std::strcmp(a, flag) == 0; };
  if (is("--trace")) {
    cli.trace = true;
  } else if (is("--tiny")) {
    cli.tiny = true;
  } else if (is("--flight")) {
    cli.flight = true;
  } else if (is("--flight-fault")) {
    cli.flight = true;
    cli.flight_fault = true;
  } else if (is("--perf")) {
    cli.perf = true;
  } else if (value == nullptr) {
    return false;
  } else if (is("--replay-flight")) {
    cli.replay_bundle = value;
    ++*i;
  } else if (is("--perf-out")) {
    cli.perf = true;
    cli.perf_out = value;
    ++*i;
  } else if (is("--obs-out")) {
    cli.out_dir = value;
    ++*i;
  } else if ((is("--jobs") && parse_count(value, &cli.jobs)) ||
             (is("--sweep") && parse_count(value, &cli.sweep))) {
    ++*i;
  } else {
    return false;
  }
  return true;
}

inline ObsCli parse_obs_cli(int argc, char** argv) {
  ObsCli cli;
  for (int i = 1; i < argc; ++i) consume_obs_flag(cli, argc, argv, &i);
  return cli;
}

/// Removes the ObsCli flags from argv (in place) so they can coexist with
/// another flag parser — google-benchmark aborts on flags it does not
/// know. An argument the shared parser does not consume (see
/// consume_obs_flag) is left in place. Returns the new argc.
inline int strip_obs_cli(int argc, char** argv) {
  ObsCli ignored;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (!consume_obs_flag(ignored, argc, argv, &i)) argv[out++] = argv[i];
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

/// parse_obs_cli for a bench that takes no other arguments: anything the
/// shared parser leaves behind (a typo, a deleted flag, a value flag
/// missing its value, a malformed count) exits 2 with a usage line
/// instead of running the default configuration the caller did not ask
/// for.
inline ObsCli parse_bench_cli(int argc, char** argv) {
  const ObsCli cli = parse_obs_cli(argc, argv);
  if (strip_obs_cli(argc, argv) > 1) {
    std::fprintf(
        stderr,
        "%s: unexpected argument '%s'\n"
        "usage: %s [--tiny] [--jobs N] [--trace] [--obs-out DIR] [--perf]\n"
        "       [--perf-out FILE] [--flight] [--flight-fault]\n"
        "       [--replay-flight DIR] [--sweep N]\n"
        "N is a non-negative integer.\n",
        argv[0], argv[1], argv[0]);
    std::exit(2);
  }
  return cli;
}

/// Applies the CLI to an experiment config: all trace categories on and
/// counters scraped once per millisecond of simulated time with `--trace`;
/// with `--flight`, anomaly triggers armed at thresholds that stay silent
/// on a healthy run but fire on a pause storm or drop burst.
inline void apply_obs_cli(const ObsCli& cli, ExperimentConfig& cfg) {
  if (cli.trace) {
    cfg.obs.trace = obs::TraceConfig::all_on();
    cfg.obs.counter_scrape_interval = milliseconds(1);
  }
  if (cli.perf) {
    cfg.obs.perf_counters = true;
  }
  if (cli.flight) {
    cfg.obs.flight.armed = true;
    cfg.obs.flight.dir = cli.out_dir + "/flight";
    // >5% of link-time paused fabric-wide, or any burst of MMU drops
    // (lossless fabrics should never drop), or an SA revert.
    cfg.obs.flight.pause_ns_per_sec = 50'000'000;
    cfg.obs.flight.drop_burst = 8;
    cfg.obs.flight.on_sa_revert = true;
  }
}

/// Writes `<name>.trace.json` (Chrome trace-event format, Perfetto-
/// loadable), `<name>.obs.json` (counter registry + episode timelines)
/// and, for offline plotting, `<name>.throughput.csv`, `<name>.rtt.csv`
/// (per-MI `t_ms,value`) and `<name>.flows.csv` (completed flows) for a
/// finished run. No-op unless --trace was given. Returns false (after
/// naming the files on stderr) when any of them could not be written.
inline bool dump_obs(const ObsCli& cli, const Experiment& exp,
                     const std::string& name) {
  if (!cli.trace) return true;
  const std::string base = cli.out_dir + "/" + name;
  std::ofstream trace(base + ".trace.json");
  trace << exp.simulator().obs().trace().to_json();
  trace.close();
  std::ofstream report(base + ".obs.json");
  report << runner::obs_report_json(exp);
  report.close();
  if (!trace || !report) {
    std::fprintf(stderr, "# obs: FAILED to write %s.{trace,obs}.json\n",
                 base.c_str());
    return false;
  }
  std::printf("# obs: wrote %s.trace.json and %s.obs.json\n", base.c_str(),
              base.c_str());
  const bool csv_ok =
      stats::write_timeseries_csv(base + ".throughput.csv",
                                  exp.throughput_series()) &&
      stats::write_timeseries_csv(base + ".rtt.csv", exp.rtt_series()) &&
      stats::write_flows_csv(base + ".flows.csv", exp.fct().completed());
  if (!csv_ok) {
    std::fprintf(stderr, "# obs: FAILED to write %s.*.csv\n", base.c_str());
    return false;
  }
  std::printf("# obs: wrote %s.{throughput,rtt,flows}.csv\n", base.c_str());
  return true;
}

/// Writes a grid document to `path` and its Chrome-trace timeline next to
/// it (`x.grid.json` -> `x.grid.timeline.json`). Returns false (after
/// naming the files on stderr) when either could not be written.
inline bool write_grid(const scenario::GridOutcome& grid,
                       const std::string& path) {
  const std::string suffix = ".json";
  std::string timeline = path;
  if (timeline.size() > suffix.size() &&
      timeline.compare(timeline.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
    timeline.resize(timeline.size() - suffix.size());
  }
  timeline += ".timeline.json";
  if (!grid.write(path) || !grid.write_timeline(timeline)) {
    std::fprintf(stderr, "# grid: FAILED to write %s and %s\n", path.c_str(),
                 timeline.c_str());
    return false;
  }
  std::printf("# grid: wrote %s and %s\n", path.c_str(), timeline.c_str());
  return true;
}

/// One `paraleon.bench.v1` document: the bench's headline metrics as
/// name -> {value, unit} plus the machine fingerprint. Written by
/// --perf-out, committed as the BENCH_*.json baselines, compared by
/// tools/bench_trend.py (gate fields — tolerances, direction — live only
/// in the baselines; a fresh run carries values).
class TrendReport {
 public:
  explicit TrendReport(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double value,
           const std::string& unit = "") {
    metrics_[name] = {value, unit};
  }

  /// Serializes the document (sorted metric order, so reruns diff clean).
  std::string to_json() const {
    std::string out = "{\n  \"schema\": \"paraleon.bench.v1\",\n";
    out += "  \"bench\": \"" + bench_ + "\",\n";
    out += "  \"fingerprint\": {\"compiler\": \"" + compiler_id();
    out += "\", \"build_type\": \"" + std::string(build_type());
    out += "\", \"hardware_threads\": " + std::to_string(hardware_threads());
    out += "},\n  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + name + "\": {\"value\": " + obs::format_value(m.value);
      if (!m.unit.empty()) out += ", \"unit\": \"" + m.unit + "\"";
      out += "}";
    }
    out += metrics_.empty() ? "}" : "\n  }";
    out += "\n}\n";
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    f << to_json();
    return static_cast<bool>(f);
  }

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::string bench_;
  std::map<std::string, Metric> metrics_;
};

/// The standard PerfMonitor metric block: every bench that ran an
/// instrumented experiment reports the same event-loop economics, so the
/// trend across benches is comparable. No-op while the monitor is off.
inline void add_perf_metrics(TrendReport& r, const Experiment& exp) {
  const obs::PerfMonitor& perf = exp.simulator().obs().perf();
  if (!perf.enabled()) return;
  r.add("events_executed", static_cast<double>(perf.events_executed()),
        "events");
  r.add("events_scheduled", static_cast<double>(perf.events_scheduled()),
        "events");
  r.add("max_queue_depth", static_cast<double>(perf.max_queue_depth()),
        "events");
  r.add("closure_heap_allocs",
        static_cast<double>(perf.closure_heap_allocs()), "allocs");
  r.add("packet_enqueues", static_cast<double>(perf.packet_enqueues()),
        "packets");
  // Wall metrics: machine-dependent — the baselines gate these loosely or
  // not at all (see docs/PERFORMANCE.md).
  r.add("wall_seconds", perf.wall_seconds(), "s");
  r.add("events_per_sec", perf.events_per_sec(), "events/s");
}

/// Writes the bench-trend artifact when --perf-out was given.
inline void write_trend(const ObsCli& cli, const TrendReport& report) {
  if (cli.perf_out.empty()) return;
  if (report.write(cli.perf_out)) {
    std::printf("# perf: wrote %s\n", cli.perf_out.c_str());
  } else {
    std::fprintf(stderr, "# perf: FAILED to write %s\n",
                 cli.perf_out.c_str());
  }
}

/// Wall-clock stopwatch for bench-level timing (bench TUs are outside the
/// determinism-linted tree; simulation code must never use this).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Paper-shaped fabric at laptop scale: 8 ToR, 4 leaf, 8 hosts/ToR
/// (64 hosts), 10 Gbps host links, 5 Gbps fabric links — per ToR 80G down
/// vs 20G up = the paper's 4:1 oversubscription. The controller/agent
/// block comes from scenario::apply_paper_defaults — the SAME function
/// every scenario file routes through, so a scenario spelling out this
/// fabric is byte-identical to the hand-built config.
inline ExperimentConfig paper_fabric(Scheme scheme, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.clos.n_tor = 8;
  cfg.clos.n_leaf = 4;
  cfg.clos.hosts_per_tor = 8;
  cfg.clos.host_link = gbps(10);
  cfg.clos.fabric_link = gbps(5);
  cfg.clos.prop_delay = microseconds(5);  // paper value
  cfg.clos.switch_cfg.buffer_bytes = 12ll * 1024 * 1024;  // paper value
  cfg.scheme = scheme;
  cfg.seed = seed;
  scenario::apply_paper_defaults(cfg);
  return cfg;
}

/// Smaller 16-host variant for the parameter-sweep benches (Figs. 5/6),
/// which run dozens of configurations.
inline ExperimentConfig small_fabric(Scheme scheme, std::uint64_t seed) {
  ExperimentConfig cfg = paper_fabric(scheme, seed);
  cfg.clos.n_tor = 4;
  cfg.clos.n_leaf = 2;
  cfg.clos.hosts_per_tor = 4;
  return cfg;
}

inline workload::PoissonConfig fb_hadoop(const Experiment& exp, double load,
                                         Time stop, std::uint64_t seed) {
  workload::PoissonConfig w;
  w.hosts = exp.all_hosts();
  w.sizes = &workload::fb_hadoop_distribution();
  w.load = load;
  w.stop = stop;
  w.seed = seed;
  return w;
}

}  // namespace paraleon::bench
