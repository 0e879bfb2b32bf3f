// Shared helpers for the paper-reproduction benches: the command line,
// scenario loading and per-cell harvesting, scaling notes, and the
// paraleon.bench.v1 trend document.
//
// The experiments themselves are the scenarios/ files. The paper's NS3
// fabric is 8 ToR x 4 leaf x 128 hosts, all 100 Gbps, 4:1 oversubscribed,
// 5 us links, 12 MB switch buffers; the files keep the topology shape and
// oversubscription but scale to 64 hosts at 10/5 Gbps so every table and
// figure regenerates on a laptop in minutes. DCQCN presets are rescaled
// with dcqcn::scaled_for_line_rate (see DESIGN.md).
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
#include <vector>

#include "common/json.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "scenario/grid_runner.hpp"
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

/// The flags a figure bench can honour. Each bench passes parse_bench_cli
/// the subset it reads; any other argument exits 2 with a usage line that
/// lists exactly that subset, so no bench silently ignores a flag. Run
/// modes (tracing, flight bundles, replays, grid checks) belong to
/// paraleon_run alone.
enum BenchFlag : unsigned {
  kTiny = 1u << 0,     // --tiny: the bench's smallest configuration (CI)
  kJobs = 1u << 1,     // --jobs N: worker threads, 0 = one per hw thread
  kPerfOut = 1u << 2,  // --perf-out FILE: a paraleon.bench.v1 baseline
};

struct BenchCli {
  bool tiny = false;
  int jobs = 1;          // 1 = serial
  std::string perf_out;  // empty = no bench-trend artifact
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

/// Loads the committed scenarios/`file` and returns `body(scenario)`, the
/// bench's exit code. A ScenarioError (a malformed file, one the body
/// rejects, or a second file the body loads) exits 2 with its message.
template <typename Body>
int run_with_scenario(const std::string& file, bool tiny, Body body) {
  try {
    return body(scenario::load_scenario_file(scenario_path(file), tiny));
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
}

/// The number of cells in `sc`'s grid: its sweep's cross-product.
inline std::size_t cell_count(const scenario::Scenario& sc) {
  std::size_t cells = 1;
  for (const auto& axis : sc.sweep) cells *= axis.values.size();
  return cells;
}

/// Runs `sc`'s grid on `jobs` workers and returns one slot per cell, in
/// cell order: `harvest(cell, exp, flows)` builds it on the cell's worker
/// thread once the run completes. Slots are preallocated and indexed by
/// cell, so pool threads never contend and the table is identical at any
/// job count. `on_config` is the grid's last-mile config hook.
template <typename Harvest>
auto harvest_grid(const scenario::Scenario& sc, int jobs, Harvest harvest,
                  decltype(scenario::GridOptions::on_config) on_config = {}) {
  std::vector<decltype(harvest(std::declval<const scenario::GridCell&>(),
                               std::declval<Experiment&>(),
                               std::declval<const scenario::FlowScheduler&>()))>
      slots(cell_count(sc));
  scenario::GridOptions opts;
  opts.jobs = jobs;
  opts.on_config = std::move(on_config);
  opts.on_cell = [&](const scenario::GridCell& cell, Experiment& exp,
                     const scenario::FlowScheduler& flows) {
    slots[cell.index] = harvest(cell, exp, flows);
  };
  scenario::run_grid(sc, opts);
  return slots;
}

/// A cell's named metric `name` (the file's `metrics` section). A file
/// that does not name it cannot feed the bench's table.
inline double cell_metric(const scenario::CellResult& r,
                          const std::string& name) {
  const auto it = r.metrics.find(name);
  if (it == r.metrics.end()) {
    throw scenario::ScenarioError("the scenario names no metric \"" + name +
                                  "\"");
  }
  return it->second;
}

/// The `# scaling:` note of a scenario-driven bench: the fabric of the
/// config the file maps to, then the file's description.
inline std::string scenario_note(const scenario::Scenario& sc) {
  return scaling_note(scenario::to_experiment_config(sc), sc.description);
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

/// "usage: BENCH [--tiny] [--jobs N] [--perf-out FILE]", listing only the
/// `honoured` flags.
inline std::string bench_usage(const char* argv0, unsigned honoured) {
  std::string out = std::string("usage: ") + argv0;
  if (honoured & kTiny) out += " [--tiny]";
  if (honoured & kJobs) out += " [--jobs N]";
  if (honoured & kPerfOut) out += " [--perf-out FILE]";
  if (honoured & kJobs) out += "\nN is a non-negative integer.";
  return out;
}

/// Consumes the `honoured` flags (and their values) from argv in place and
/// returns the new argc. What is left is every argument the bench does not
/// honour: an unknown flag, a value flag missing its value, or a `--jobs`
/// value that is not a non-negative integer.
inline int take_bench_flags(BenchCli& cli, unsigned honoured, int argc,
                            char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if ((honoured & kTiny) && std::strcmp(a, "--tiny") == 0) {
      cli.tiny = true;
    } else if ((honoured & kJobs) && std::strcmp(a, "--jobs") == 0 &&
               value != nullptr && parse_count(value, &cli.jobs)) {
      ++i;
    } else if ((honoured & kPerfOut) && std::strcmp(a, "--perf-out") == 0 &&
               value != nullptr) {
      cli.perf_out = value;
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

/// take_bench_flags for a bench that takes no other arguments: anything
/// left over exits 2 with the bench's usage line instead of running a
/// configuration the caller did not ask for.
inline BenchCli parse_bench_cli(int argc, char** argv, unsigned honoured) {
  BenchCli cli;
  if (take_bench_flags(cli, honoured, argc, argv) > 1) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n%s\n", argv[0],
                 argv[1], bench_usage(argv[0], honoured).c_str());
    std::exit(2);
  }
  return cli;
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
    using common::Json;
    Json metrics = Json::make_object();
    for (const auto& [name, m] : metrics_) {
      Json metric = Json::make_object({{"value", Json::make_number(m.value)}});
      if (!m.unit.empty()) metric.set("unit", Json::make_string(m.unit));
      metrics.members().emplace_back(name, std::move(metric));
    }
    const Json doc = Json::make_object({
        {"schema", Json::make_string("paraleon.bench.v1")},
        {"bench", Json::make_string(bench_)},
        {"fingerprint",
         Json::make_object({
             {"compiler", Json::make_string(compiler_id())},
             {"build_type", Json::make_string(build_type())},
             {"hardware_threads", Json::make_uint(hardware_threads())},
         })},
        {"metrics", std::move(metrics)},
    });
    return doc.dump() + "\n";
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

/// Writes the bench-trend artifact when --perf-out was given (`path`
/// non-empty).
inline void write_trend(const std::string& path, const TrendReport& report) {
  if (path.empty()) return;
  if (report.write(path)) {
    std::printf("# perf: wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "# perf: FAILED to write %s\n", path.c_str());
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

/// The three " | Gbps rtt_us" column pairs of an influx table row (Figs.
/// 8 and 9): the before / influx / after metrics its file names.
inline void print_phase_metrics(const scenario::CellResult& r) {
  for (const std::string phase : {"before", "influx", "after"}) {
    std::printf(" | %8.2f %8.2f", cell_metric(r, phase + "_tput_gbps"),
                cell_metric(r, phase + "_rtt_us"));
  }
}

}  // namespace paraleon::bench
