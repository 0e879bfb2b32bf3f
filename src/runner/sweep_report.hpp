// Per-run facts for cross-run documents: the deterministic scrape of one
// finished Experiment, the min/mean/p95/max aggregate shape, and z-score
// straggler detection over pool job spans. scenario::GridOutcome (the
// paraleon.grid.v1 document) is the one consumer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "stats/fct_tracker.hpp"

namespace paraleon::runner {

class Experiment;

/// The per-run facts a cross-run document keeps: a deterministic scrape
/// of one finished Experiment, cheap enough to take for every grid cell.
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
RunScrape scrape_run(const Experiment& exp);

/// min/mean/p95/max over one scraped quantity across a set of runs.
struct FleetAggregate {
  double min = 0.0;
  double mean = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// A job whose wall time sits `z` standard deviations above the mean.
struct Straggler {
  std::uint64_t job = 0;
  double z = 0.0;
  double seconds = 0.0;
};

/// Flags completed spans whose wall time z-score exceeds `z_threshold`.
/// Needs >= 2 completed spans and nonzero spread; returns spans in job
/// order. Exposed free for unit testing on synthetic spans.
std::vector<Straggler> find_stragglers(
    const std::vector<obs::JobSpan>& spans, double z_threshold);

}  // namespace paraleon::runner
