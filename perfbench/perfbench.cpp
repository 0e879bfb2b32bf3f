// perfbench: runs one benchmark workload through the public scenario ->
// runner -> sim path and prints its raw measurements as one JSON document
// (schema perfbench.raw.v1) on stdout. run.py builds this program, derives
// every metric from the document and applies the correctness gate.
//
//   perfbench --doc workloads/influx.json --seconds 20 --trace 0
//
// The run goes in rounds until --seconds of wall time is used. A round
// first times 101 set-ups (load the document, expand its grid and build +
// install every cell without running it, timing each step), then runs the
// whole workload once untraced and, with --trace 1, once traced. There are
// at least four untraced passes (a warm-up and three timed ones), or two
// with --trace 1. Cells fan out over exec::parallel_map
// with an obs::PoolTelemetry, and every cell runs Experiment::run_until
// sliced at each monitor interval, so the document carries the wall time
// of every simulated MI.
//
// Everything here is read from outside the layers: their public calls are
// timed and their public counters (PerfMonitor, the counter registry,
// LoopProfiler::by_tag, ParaleonController::overheads) are read after the
// run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel_map.hpp"
#include "obs/fleet.hpp"
#include "runner/experiment.hpp"
#include "scenario/flow_scheduler.hpp"
#include "scenario/grid_runner.hpp"

using namespace paraleon;
using scenario::Json;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

struct Options {
  std::string doc;
  double seconds = 10.0;
  bool trace = false;
};

// Cells fan out over this many workers; a single-cell workload takes
// parallel_map's serial path.
constexpr int kJobs = 2;

// Set-up takes a millisecond or two, and how fast the machine runs it
// changes over seconds. So a batch of set-ups is timed before every round
// of passes: their median samples the whole run, as the passes do.
constexpr int kSetupBatch = 101;

struct CellRun {
  std::size_t index = 0;
  std::uint64_t digest = 0;
  std::int64_t wall_ns = 0;  // config + build + install + sliced run
  std::vector<std::int64_t> mi_wall_ns;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;  // PerfMonitor packet enqueues
  std::uint64_t max_queue_depth = 0;
  std::uint64_t closure_heap_allocs = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_finished = 0;
  // Registry instruments summed over node ids ("host.*.cnp.sent").
  std::map<std::string, double> counters;
  std::map<std::string, std::uint64_t> tag_events;
  std::map<std::string, obs::LoopProfiler::TagStats> tag_wall;  // traced
  std::uint64_t mi_ticks = 0;
  std::uint64_t episodes = 0;
  std::uint64_t reverts = 0;
  std::uint64_t sa_iterations = 0;
  double controller_cpu_s = 0.0;
  std::vector<double> slowdowns;
  std::vector<double> goodput_gbps;
  std::vector<double> rtt_us;
};

/// "switch.12.port.3.paused_ns" -> "switch.*.port.*.paused_ns".
std::string wildcard_ids(const std::string& name) {
  std::string out;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t end = name.find('.', start);
    if (end == std::string::npos) end = name.size();
    const std::string seg = name.substr(start, end - start);
    const bool numeric =
        !seg.empty() && std::all_of(seg.begin(), seg.end(), [](char c) {
          return c >= '0' && c <= '9';
        });
    if (!out.empty()) out += '.';
    out += numeric ? "*" : seg;
    start = end + 1;
  }
  return out;
}

std::vector<double> series_values(const stats::TimeSeries& s) {
  std::vector<double> v;
  v.reserve(s.points().size());
  for (const auto& p : s.points()) v.push_back(p.value);
  return v;
}

CellRun run_cell(const scenario::GridCell& cell, bool traced) {
  const auto t0 = Clock::now();
  runner::ExperimentConfig cfg = scenario::to_experiment_config(cell.scenario);
  // The hop and per-tag event counts come from PerfMonitor (about 1%).
  cfg.obs.perf_counters = true;
  cfg.obs.profile_loop = traced;
  runner::Experiment exp(cfg);
  scenario::FlowScheduler flows(cell.scenario, &exp);
  flows.install_all();
  if (cell.scenario.scheme.force_trigger && exp.controller() != nullptr) {
    exp.controller()->force_trigger();
  }
  CellRun r;
  r.index = cell.index;
  const Time mi = cfg.controller.mi;
  for (Time t = mi;; t += mi) {
    const Time until = std::min(t, cfg.duration);
    const auto s0 = Clock::now();
    exp.run_until(until);
    r.mi_wall_ns.push_back(ns_since(s0));
    if (until == cfg.duration) break;
  }
  r.wall_ns = ns_since(t0);

  const sim::Simulator& sim = exp.simulator();
  const obs::PerfMonitor& perf = sim.obs().perf();
  r.digest = runner::run_digest(exp);
  r.events = sim.events_executed();
  r.hops = perf.packet_enqueues();
  r.max_queue_depth = perf.max_queue_depth();
  r.closure_heap_allocs = perf.closure_heap_allocs();
  r.flows_started = exp.fct().started();
  r.flows_finished = exp.fct().finished();
  for (const auto& s : sim.obs().registry().snapshot()) {
    r.counters[wildcard_ids(s.name)] += s.value;
  }
  r.tag_events = perf.tags_by_name();
  if (traced) r.tag_wall = sim.obs().profiler().by_tag();
  for (const auto& c : exp.controllers()) {
    r.mi_ticks += c->overheads().mi_ticks;
    r.controller_cpu_s += c->overheads().controller_cpu_seconds;
    r.episodes += c->episodes();
    r.reverts += c->reverts();
    r.sa_iterations +=
        static_cast<std::uint64_t>(c->tuner().iterations_done());
  }
  r.slowdowns =
      exp.fct().slowdowns(0, std::numeric_limits<std::int64_t>::max());
  r.goodput_gbps = series_values(exp.throughput_series());
  r.rtt_us = series_values(exp.rtt_series());
  return r;
}

struct Rep {
  bool traced = false;
  std::int64_t wall_ns = 0;
  std::vector<CellRun> cells;
  obs::PoolTelemetry pool;
};

Json num(double v) { return Json::make_number(v); }
Json count(std::uint64_t v) {
  return Json::make_int(static_cast<std::int64_t>(v));
}

template <typename T>
Json array_of(const std::vector<T>& values) {
  Json a = Json::make_array();
  for (const T v : values) {
    if constexpr (std::is_integral_v<T>) {
      a.push_back(Json::make_int(static_cast<std::int64_t>(v)));
    } else {
      a.push_back(num(v));
    }
  }
  return a;
}

Json cell_json(const CellRun& c, bool with_series) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(c.digest));
  Json j = Json::make_object();
  j.set("index", count(c.index));
  j.set("digest", Json::make_string(digest));
  j.set("wall_ns", Json::make_int(c.wall_ns));
  j.set("mi_wall_ns", array_of(c.mi_wall_ns));
  j.set("events", count(c.events));
  j.set("hops", count(c.hops));
  j.set("max_queue_depth", count(c.max_queue_depth));
  j.set("closure_heap_allocs", count(c.closure_heap_allocs));
  j.set("flows_started", count(c.flows_started));
  j.set("flows_finished", count(c.flows_finished));
  Json counters = Json::make_object();
  for (const auto& [name, v] : c.counters) counters.set(name, num(v));
  j.set("counters", std::move(counters));
  Json tags = Json::make_object();
  for (const auto& [tag, n] : c.tag_events) tags.set(tag, count(n));
  j.set("tag_events", std::move(tags));
  if (!c.tag_wall.empty()) {
    Json wall = Json::make_object();
    for (const auto& [tag, s] : c.tag_wall) {
      Json t = Json::make_object();
      t.set("count", count(s.count));
      t.set("total_ns", Json::make_int(s.total_ns));
      wall.set(tag, std::move(t));
    }
    j.set("tag_wall", std::move(wall));
  }
  Json core = Json::make_object();
  core.set("mi_ticks", count(c.mi_ticks));
  core.set("episodes", count(c.episodes));
  core.set("reverts", count(c.reverts));
  core.set("sa_iterations", count(c.sa_iterations));
  core.set("controller_cpu_s", num(c.controller_cpu_s));
  j.set("core", std::move(core));
  if (with_series) {
    j.set("slowdowns", array_of(c.slowdowns));
    j.set("goodput_gbps", array_of(c.goodput_gbps));
    j.set("rtt_us", array_of(c.rtt_us));
  }
  return j;
}

Json pool_json(const obs::PoolTelemetry& pool) {
  Json j = Json::make_object();
  std::int64_t busy = 0;
  std::int64_t idle = 0;
  for (const auto& w : pool.worker_stats()) {
    busy += w.busy_ns;
    idle += w.idle_ns;
  }
  std::int64_t wait_max = 0;
  for (const auto& s : pool.spans()) {
    if (s.start_ns >= 0 && s.submit_ns >= 0) {
      wait_max = std::max(wait_max, s.start_ns - s.submit_ns);
    }
  }
  j.set("workers", Json::make_int(pool.workers()));
  j.set("busy_ns", Json::make_int(busy));
  j.set("idle_ns", Json::make_int(idle));
  j.set("queue_wait_max_ns", Json::make_int(wait_max));
  j.set("failures", count(pool.failure_count()));
  return j;
}

/// Set-up only: everything a run does before its first event, per cell.
Json time_setup(const std::string& doc) {
  auto t = Clock::now();
  const scenario::Scenario sc = scenario::load_scenario_file(doc);
  const std::int64_t parse_ns = ns_since(t);
  t = Clock::now();
  const std::vector<scenario::GridCell> cells = scenario::expand_grid(sc);
  const std::int64_t expand_ns = ns_since(t);
  std::int64_t build_ns = 0;
  std::int64_t install_ns = 0;
  for (const auto& cell : cells) {
    t = Clock::now();
    runner::Experiment exp(scenario::to_experiment_config(cell.scenario));
    build_ns += ns_since(t);
    t = Clock::now();
    scenario::FlowScheduler flows(cell.scenario, &exp);
    flows.install_all();
    install_ns += ns_since(t);
  }
  Json j = Json::make_object();
  j.set("parse_ns", Json::make_int(parse_ns));
  j.set("expand_ns", Json::make_int(expand_ns));
  j.set("build_ns", Json::make_int(build_ns));
  j.set("install_ns", Json::make_int(install_ns));
  return j;
}

long peak_rss_now_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --doc SCENARIO.json [--seconds S] "
               "[--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--doc") {
      opt.doc = v;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else {
      return usage();
    }
  }
  if (opt.doc.empty()) return usage();

  try {
    Json setup = Json::make_array();
    const scenario::Scenario sc = scenario::load_scenario_file(opt.doc);
    const std::vector<scenario::GridCell> cells = scenario::expand_grid(sc);
    std::deque<Rep> reps;  // PoolTelemetry is immovable
    const auto start = Clock::now();
    // The first untraced pass is a warm-up that no timing uses, so a traced
    // run needs a second one to compare its traced passes against.
    const int min_untraced = opt.trace ? 2 : 4;
    int untraced = 0;
    // One pass's memory: later passes only add allocator fragmentation,
    // and how many of them fit in --seconds depends on the machine.
    long peak_rss_kb = 0;
    while (true) {
      const auto round = Clock::now();
      for (int i = 0; i < kSetupBatch; ++i) {
        setup.push_back(time_setup(opt.doc));
      }
      for (const bool traced : {false, true}) {
        if (traced && !opt.trace) continue;
        Rep& rep = reps.emplace_back();
        rep.traced = traced;
        const auto t0 = Clock::now();
        rep.cells = exec::parallel_map(
            cells,
            [traced](const scenario::GridCell& c) {
              return run_cell(c, traced);
            },
            kJobs, &rep.pool);
        rep.wall_ns = ns_since(t0);
        if (!traced) ++untraced;
        if (reps.size() == 1) peak_rss_kb = peak_rss_now_kb();
      }
      const double elapsed = static_cast<double>(ns_since(start)) / 1e9;
      const double last = static_cast<double>(ns_since(round)) / 1e9;
      if (untraced >= min_untraced && elapsed + last > opt.seconds) break;
    }

    Json out = Json::make_object();
    out.set("schema", Json::make_string("perfbench.raw.v1"));
    out.set("setup", std::move(setup));
    Json reps_json = Json::make_array();
    for (std::size_t i = 0; i < reps.size(); ++i) {
      Json r = Json::make_object();
      r.set("traced", Json::make_bool(reps[i].traced));
      r.set("wall_ns", Json::make_int(reps[i].wall_ns));
      r.set("pool", pool_json(reps[i].pool));
      Json cj = Json::make_array();
      for (const CellRun& c : reps[i].cells) {
        cj.push_back(cell_json(c, i == 0));
      }
      r.set("cells", std::move(cj));
      reps_json.push_back(std::move(r));
    }
    out.set("reps", std::move(reps_json));
    out.set("peak_rss_kb", Json::make_int(peak_rss_kb));
    std::fputs(out.dump().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
