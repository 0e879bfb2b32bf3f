// GridRunner: expands a scenario's sweep section into its cross-product
// of cells and runs every cell through exec::parallel_map, producing one
// paraleon.grid.v1 document — the only cross-run document. A seed sweep is
// a grid with a `seed` axis.
//
// Determinism contract (the same split paraleon.bench.v1 uses): the
// deterministic half — per-cell seed, run_digest, metric value, named
// metrics, scrape and the aggregates over them — is byte-identical at any
// --jobs setting (jobs<=1 is exec::parallel_map's exact serial path; cells
// never share state). The requested job count, pool utilization,
// per-worker busy/idle and wall seconds live only under the "wall"
// subtree, which to_json(false) omits entirely — the form the grid
// determinism test byte-compares across worker counts. timeline_json()
// renders the pool's job spans, with their queue waits, as one
// Chrome-trace document.
//
// Cell enumeration is row-major with the FIRST axis slowest, giving fig13
// its scheme-outer / scale-inner table order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "scenario/flow_scheduler.hpp"
#include "scenario/scenario.hpp"
#include "stats/fct_tracker.hpp"

namespace paraleon::scenario {

/// One point of the sweep cross-product: its row-major index, the axis
/// coordinates that produced it, and the fully re-validated scenario with
/// those patches applied (sweep section dropped).
struct GridCell {
  std::size_t index = 0;
  std::vector<Json::Member> coords;
  Scenario scenario;
};

/// Renders a cell's coordinates as "key=value key=value" on one line, an
/// object value as one-line JSON ("-" for the single cell of a sweep-less
/// scenario).
std::string coords_label(const GridCell& cell);

/// A run_digest as the 16 lowercase hex digits, leading zeros kept, that
/// the grid document and paraleon_run's tables print.
std::string digest_hex(std::uint64_t digest);

/// The per-cell facts the grid document keeps: a deterministic scrape of
/// one finished Experiment, cheap enough to take for every cell.
struct RunScrape {
  /// Full counter-registry snapshot (sorted map: name -> value).
  std::map<std::string, double> instruments;
  std::uint64_t events_executed = 0;
  stats::FctTracker::SlowdownStats slowdown;
  std::uint64_t flows_finished = 0;
  std::uint64_t flows_started = 0;
};

/// Scrapes a finished Experiment (registry snapshot, event count, FCT
/// slowdown stats). Deterministic for a given seed.
RunScrape scrape_run(const runner::Experiment& exp);

/// min/mean/p95/max over one scraped quantity across the cells.
struct FleetAggregate {
  double min = 0.0;
  double mean = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// The deterministic facts of one finished cell.
struct CellResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  /// The headline `metric`.
  double value = 0.0;
  /// Every named metric of the cell's `metrics` section.
  std::map<std::string, double> metrics;
  RunScrape scrape;
};

struct GridOptions {
  /// Worker threads for the cell fan-out; <=1 is the exact serial path,
  /// 0 means one per hardware core.
  int jobs = 1;
  /// Observes the pool that runs the cells (wall half of the report).
  obs::PoolTelemetry* telemetry = nullptr;
  /// Last-mile config hook, applied after the scenario's own mapping,
  /// before the Experiment is built — how paraleon_run layers its
  /// --trace/--flight flags and a bundle's replay settings, and the
  /// benches their perf counters (wall data; the digest never sees it),
  /// onto every cell.
  /// Tracing changes the cells' digests: run_digest hashes the retained
  /// trace events.
  std::function<void(const GridCell&, runner::ExperimentConfig&)> on_config;
  /// Per-cell hook, called on the WORKER thread after the cell's run
  /// completes, with the cell's installed workload (find a component by
  /// name for its own counters, e.g. an alltoall's completed rounds).
  /// Must not touch shared mutable state except through disjoint,
  /// preallocated slots (index by cell.index) — the benches use this to
  /// harvest their table values, and paraleon_run to write each traced
  /// cell's dumps to its own files and a one-cell grid's flight bundle
  /// and replay outputs.
  std::function<void(const GridCell&, runner::Experiment&,
                     const FlowScheduler&)>
      on_cell;
};

/// A finished grid: cells, per-cell results, and the wall-side facts.
class GridOutcome {
 public:
  GridOutcome(const Scenario& base, std::vector<GridCell> cells,
              std::vector<CellResult> results);

  const std::vector<GridCell>& cells() const { return cells_; }
  const std::vector<CellResult>& results() const { return results_; }

  /// Wall-side facts (never part of the deterministic half). run_grid
  /// fills jobs/hardware/pool; wall seconds are measured by the CALLER
  /// (src/scenario never reads the wall clock — determinism lint).
  void set_wall_shape(int jobs, int hardware_workers,
                      const obs::PoolTelemetry* pool);
  void set_wall_seconds(double s) { wall_seconds_ = s; }
  double wall_seconds() const { return wall_seconds_; }

  /// min/mean/p95/max over every scraped instrument plus the reserved
  /// names metric_value, events_executed, fct.finished and
  /// fct.slowdown_mean / _p95 / _p999.
  std::map<std::string, FleetAggregate> aggregates() const;

  /// The paraleon.grid.v1 document. include_wall=false omits the "wall"
  /// subtree — byte-deterministic at any job count.
  std::string to_json(bool include_wall = true) const;

  /// One Chrome-trace document of the pool that ran the cells (drop it
  /// on https://ui.perfetto.dev): a named track per worker plus a
  /// "submit" track, an 'X' span per cell, and an 's'->'f' flow arrow
  /// from each submission to its execution. Just the track header when
  /// no pool ran (jobs <= 1, or no telemetry).
  std::string timeline_json() const;

  /// Write to_json(true) / timeline_json() to `path`; false when the
  /// file could not be written.
  bool write(const std::string& path) const;
  bool write_timeline(const std::string& path) const;

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  std::string metric_;
  std::vector<SweepAxis> axes_;
  std::vector<GridCell> cells_;
  std::vector<CellResult> results_;
  int jobs_ = 1;
  int hardware_workers_ = 0;
  double wall_seconds_ = 0.0;
  const obs::PoolTelemetry* pool_ = nullptr;
};

/// Expands the sweep cross-product. Each cell's doc is the base doc with
/// the sweep section dropped and the axis patches applied (an object
/// value patches each of its members under the axis key), then strictly
/// re-parsed — an axis over an unknown key fails with the usual
/// "did you mean" ScenarioError, prefixed with the cell's index and
/// coordinates. Every cell's placement is checked against its own fabric
/// (FlowScheduler::check_placement) the same way. A scenario without a
/// sweep expands to one cell with empty coords.
std::vector<GridCell> expand_grid(const Scenario& base);

/// Runs one cell to completion: config, experiment, FlowScheduler,
/// forced trigger when requested, run, digest + metrics + scrape. Exposed
/// for the parity tests; run_grid fans exactly this out.
CellResult run_cell(const GridCell& cell, const GridOptions& opts);

/// The whole grid through exec::parallel_map. Results come back in cell
/// order regardless of job count.
GridOutcome run_grid(const Scenario& base, const GridOptions& opts = {});

}  // namespace paraleon::scenario
