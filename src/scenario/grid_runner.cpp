#include "scenario/grid_runner.hpp"

#include <cstdio>
#include <fstream>
#include <limits>

#include "exec/parallel_map.hpp"
#include "stats/percentile.hpp"

namespace paraleon::scenario {

std::string digest_hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

namespace {

Json count_json(std::uint64_t v) { return Json::make_uint(v); }

/// Wall-clock nanoseconds as Chrome-trace microseconds.
Json us_json(std::int64_t ns) {
  return Json::make_number(static_cast<double>(ns < 0 ? 0 : ns) / 1e3);
}

Json seconds_json(std::int64_t ns) {
  return Json::make_number(static_cast<double>(ns) / 1e9);
}

Json aggregate_json(const FleetAggregate& a) {
  return Json::make_object({
      {"min", Json::make_number(a.min)},
      {"mean", Json::make_number(a.mean)},
      {"p95", Json::make_number(a.p95)},
      {"max", Json::make_number(a.max)},
      {"n", count_json(a.n)},
  });
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// A Chrome-trace event on the grid's single process track.
Json trace_event(const std::string& name, const char* ph, std::int64_t tid) {
  return Json::make_object({
      {"name", Json::make_string(name)},
      {"ph", Json::make_string(ph)},
      {"pid", Json::make_int(0)},
      {"tid", Json::make_int(tid)},
  });
}

/// A metadata event naming the process (`what` = "process_name") or one
/// of its thread tracks ("thread_name").
Json name_event(const char* what, std::int64_t tid, const std::string& name) {
  Json ev = trace_event(what, "M", tid);
  ev.set("args", Json::make_object({{"name", Json::make_string(name)}}));
  return ev;
}

/// The wall-side pool facts, added to `wall`: the pool's totals and one
/// jobs/busy/idle row per worker.
void add_pool_json(const obs::PoolTelemetry& pool, Json& wall) {
  const std::vector<obs::WorkerStats> workers = pool.worker_stats();
  std::uint64_t jobs = 0;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
  Json rows = Json::make_array();
  for (const auto& w : workers) {
    jobs += w.jobs;
    busy_ns += w.busy_ns;
    idle_ns += w.idle_ns;
    rows.push_back(Json::make_object({
        {"jobs", count_json(w.jobs)},
        {"busy_seconds", seconds_json(w.busy_ns)},
        {"idle_seconds", seconds_json(w.idle_ns)},
    }));
  }
  wall.set("pool",
           Json::make_object({
               {"workers", count_json(workers.size())},
               {"pool_wall_seconds", Json::make_number(pool.wall_seconds())},
               {"busy_seconds", seconds_json(busy_ns)},
               {"idle_seconds", seconds_json(idle_ns)},
               {"jobs_completed", count_json(jobs)},
           }));
  wall.set("workers", std::move(rows));
}

}  // namespace

RunScrape scrape_run(const runner::Experiment& exp) {
  RunScrape scrape;
  for (const auto& sample : exp.simulator().obs().registry().snapshot()) {
    scrape.instruments[sample.name] = sample.value;
  }
  scrape.events_executed = exp.simulator().events_executed();
  scrape.slowdown =
      exp.fct().slowdown_stats(0, std::numeric_limits<std::int64_t>::max());
  scrape.flows_finished = static_cast<std::uint64_t>(exp.fct().finished());
  scrape.flows_started = static_cast<std::uint64_t>(exp.fct().started());
  return scrape;
}

std::string coords_label(const GridCell& cell) {
  std::string out;
  for (const auto& [key, value] : cell.coords) {
    if (!out.empty()) out += " ";
    out += key + "=";
    if (value.is_string()) {
      out += value.as_string();
    } else {
      value.dump_line(out);
    }
  }
  return out.empty() ? std::string("-") : out;
}

std::vector<GridCell> expand_grid(const Scenario& base) {
  const auto& axes = base.sweep;
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();

  std::vector<GridCell> cells;
  cells.reserve(total);
  // Odometer over the axis value indices: the LAST axis spins fastest, so
  // the first axis is the slow (outer) dimension — fig13's legacy
  // scheme-outer / scale-inner order.
  std::vector<std::size_t> odo(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    GridCell cell;
    cell.index = index;
    Json doc = base.doc;
    doc.erase("sweep");
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const Json& value = axes[a].values[odo[a]];
      cell.coords.emplace_back(axes[a].key, value);
      if (value.is_object()) {
        // An object value is a set of dotted patches under the axis key:
        // its members merge into the cell, so another axis's patch to a
        // sibling key survives in either axis order.
        for (const auto& [key, member] : value.members()) {
          apply_dotted_patch(doc, axes[a].key + "." + key, member);
        }
      } else {
        apply_dotted_patch(doc, axes[a].key, value);
      }
    }
    // Strict reparse: an axis that patched in an unknown key fails here
    // with the usual "did you mean" error, prefixed with the cell, and so
    // does a placement this cell's fabric cannot hold (an axis may have
    // changed the topology).
    try {
      cell.scenario = parse_scenario(doc, base.name);
      FlowScheduler::check_placement(cell.scenario);
    } catch (const ScenarioError& e) {
      throw ScenarioError(base.name + " cell " + std::to_string(index) +
                          " (" + coords_label(cell) + "): " + e.what());
    }
    cells.push_back(std::move(cell));

    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odo[a] < axes[a].values.size()) break;
      odo[a] = 0;
    }
  }
  return cells;
}

CellResult run_cell(const GridCell& cell, const GridOptions& opts) {
  runner::ExperimentConfig cfg = to_experiment_config(cell.scenario);
  if (opts.on_config) opts.on_config(cell, cfg);
  runner::Experiment exp(cfg);
  FlowScheduler flows(cell.scenario, &exp);
  flows.install_all();
  if (cell.scenario.scheme.force_trigger && exp.controller() != nullptr) {
    exp.controller()->force_trigger();
  }
  exp.run();

  CellResult r;
  r.index = cell.index;
  r.seed = cell.scenario.seed;
  r.digest = runner::run_digest(exp);
  r.value = evaluate_metric(cell.scenario.metric, exp, flows);
  for (const auto& [name, metric] : cell.scenario.metrics) {
    r.metrics[name] = evaluate_metric(metric, exp, flows);
  }
  r.scrape = scrape_run(exp);
  if (opts.on_cell) opts.on_cell(cell, exp, flows);
  return r;
}

GridOutcome run_grid(const Scenario& base, const GridOptions& opts) {
  std::vector<GridCell> cells = expand_grid(base);
  std::vector<CellResult> results = exec::parallel_map(
      cells, [&opts](const GridCell& cell) { return run_cell(cell, opts); },
      opts.jobs, opts.telemetry);
  GridOutcome outcome(base, std::move(cells), std::move(results));
  outcome.set_wall_shape(opts.jobs, exec::ThreadPool::hardware_workers(),
                         opts.telemetry);
  return outcome;
}

GridOutcome::GridOutcome(const Scenario& base, std::vector<GridCell> cells,
                         std::vector<CellResult> results)
    : name_(base.name),
      seed_(base.seed),
      metric_(base.metric.name),
      axes_(base.sweep),
      cells_(std::move(cells)),
      results_(std::move(results)) {}

void GridOutcome::set_wall_shape(int jobs, int hardware_workers,
                                 const obs::PoolTelemetry* pool) {
  jobs_ = jobs;
  hardware_workers_ = hardware_workers;
  pool_ = pool;
}

std::map<std::string, FleetAggregate> GridOutcome::aggregates()
    const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& r : results_) {
    for (const auto& [name, value] : r.scrape.instruments) {
      samples[name].push_back(value);
    }
    samples["metric_value"].push_back(r.value);
    samples["events_executed"].push_back(
        static_cast<double>(r.scrape.events_executed));
    samples["fct.finished"].push_back(
        static_cast<double>(r.scrape.flows_finished));
    samples["fct.slowdown_mean"].push_back(r.scrape.slowdown.mean);
    samples["fct.slowdown_p95"].push_back(r.scrape.slowdown.p95);
    samples["fct.slowdown_p999"].push_back(r.scrape.slowdown.p999);
  }
  std::map<std::string, FleetAggregate> out;
  for (const auto& [name, values] : samples) {
    FleetAggregate agg;
    agg.n = values.size();
    agg.min = values.front();
    agg.max = values.front();
    for (const double v : values) {
      if (v < agg.min) agg.min = v;
      if (v > agg.max) agg.max = v;
    }
    agg.mean = stats::mean(values);
    agg.p95 = stats::quantile(values, 0.95);
    out[name] = agg;
  }
  return out;
}

std::string GridOutcome::to_json(bool include_wall) const {
  Json axes = Json::make_array();
  for (const auto& axis : axes_) {
    Json values = Json::make_array();
    for (const auto& v : axis.values) values.push_back(v);
    axes.push_back(Json::make_object({
        {"key", Json::make_string(axis.key)},
        {"values", std::move(values)},
    }));
  }

  Json cells = Json::make_array();
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const CellResult& r = results_[i];
    Json coords = Json::make_object();
    for (const auto& [key, value] : cells_[i].coords) {
      coords.set(key, value);
    }
    Json metrics = Json::make_object();
    for (const auto& [name, value] : r.metrics) {
      metrics.members().emplace_back(name, Json::make_number(value));
    }
    cells.push_back(Json::make_object({
        {"index", count_json(r.index)},
        {"coords", std::move(coords)},
        {"seed", Json::make_uint(r.seed)},
        {"digest", Json::make_string(digest_hex(r.digest))},
        {"value", Json::make_number(r.value)},
        {"metrics", std::move(metrics)},
        {"events_executed", count_json(r.scrape.events_executed)},
        {"fct",
         Json::make_object({
             {"finished", count_json(r.scrape.flows_finished)},
             {"started", count_json(r.scrape.flows_started)},
             {"slowdown", runner::slowdown_json(r.scrape.slowdown)},
         })},
    }));
  }

  // aggregates() is a name-ordered map: its keys are unique.
  Json aggs = Json::make_object();
  for (const auto& [name, agg] : aggregates()) {
    aggs.members().emplace_back(name, aggregate_json(agg));
  }

  Json doc = Json::make_object({
      {"schema", Json::make_string("paraleon.grid.v1")},
      {"scenario", Json::make_string(name_)},
      {"seed", Json::make_uint(seed_)},
      {"metric", Json::make_string(metric_)},
      {"axes", std::move(axes)},
      {"cells", std::move(cells)},
      {"aggregates", std::move(aggs)},
  });
  if (include_wall) {
    // Everything below is OS-scheduling noise (and the requested job
    // count, which must not influence the deterministic half): never
    // digested, never byte-compared.
    Json wall = Json::make_object({
        {"jobs", Json::make_int(jobs_)},
        {"hardware_workers", Json::make_int(hardware_workers_)},
        {"wall_seconds", Json::make_number(wall_seconds_)},
    });
    if (pool_ != nullptr) add_pool_json(*pool_, wall);
    doc.members().emplace_back("wall", std::move(wall));
  }
  return doc.dump() + "\n";
}

std::string GridOutcome::timeline_json() const {
  Json events = Json::make_array();
  // Track naming: pid 0 is the grid, tid 0 the submitting thread, tid
  // w+1 worker w.
  events.push_back(name_event("process_name", 0, "grid:" + name_));
  events.push_back(name_event("thread_name", 0, "submit"));
  const int workers = pool_ == nullptr ? 0 : pool_->workers();
  for (int w = 0; w < workers; ++w) {
    events.push_back(
        name_event("thread_name", w + 1, "worker " + std::to_string(w)));
  }

  const std::vector<obs::JobSpan> spans =
      pool_ == nullptr ? std::vector<obs::JobSpan>{} : pool_->spans();
  // parallel_map submits the cells in order, so when the pool ran exactly
  // this grid, job i is cell i: label the span with its coordinates.
  const bool by_cell = spans.size() == cells_.size();
  for (const auto& sp : spans) {
    const std::string label =
        by_cell && sp.job < cells_.size()
            ? "cell " + std::to_string(sp.job) + " " +
                  coords_label(cells_[sp.job])
            : "job " + std::to_string(sp.job);
    const std::int64_t tid = sp.worker < 0 ? 0 : sp.worker + 1;
    if (sp.submit_ns >= 0 && sp.start_ns >= 0) {
      // Flow arrow: submission ('s' on the submit track) to execution
      // ('f' on the worker track, binding point "e" = enclosing slice).
      Json start = trace_event("dispatch", "s", 0);
      start.set("cat", Json::make_string("grid"));
      start.set("id", count_json(sp.job));
      start.set("ts", us_json(sp.submit_ns));
      events.push_back(std::move(start));
    }
    if (sp.start_ns < 0 || sp.end_ns < sp.start_ns) continue;
    Json span = trace_event(label, "X", tid);
    span.set("cat", Json::make_string("grid"));
    span.set("ts", us_json(sp.start_ns));
    span.set("dur", us_json(sp.end_ns - sp.start_ns));
    span.set("args",
             Json::make_object({
                 {"job", count_json(sp.job)},
                 {"queue_wait_us", us_json(sp.submit_ns >= 0
                                               ? sp.start_ns - sp.submit_ns
                                               : 0)},
             }));
    events.push_back(std::move(span));
    if (sp.submit_ns >= 0) {
      Json finish = trace_event("dispatch", "f", tid);
      finish.set("cat", Json::make_string("grid"));
      finish.set("bp", Json::make_string("e"));
      finish.set("id", count_json(sp.job));
      finish.set("ts", us_json(sp.start_ns));
      events.push_back(std::move(finish));
    }
  }

  const Json doc = Json::make_object({
      {"displayTimeUnit", Json::make_string("ms")},
      {"traceEvents", std::move(events)},
  });
  return doc.dump() + "\n";
}

bool GridOutcome::write(const std::string& path) const {
  return write_text(path, to_json(true));
}

bool GridOutcome::write_timeline(const std::string& path) const {
  return write_text(path, timeline_json());
}

}  // namespace paraleon::scenario
