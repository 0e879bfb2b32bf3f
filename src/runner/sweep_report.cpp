#include "runner/sweep_report.hpp"

#include <cmath>
#include <limits>

#include "runner/experiment.hpp"
#include "stats/percentile.hpp"

namespace paraleon::runner {

RunScrape scrape_run(const Experiment& exp) {
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

std::vector<Straggler> find_stragglers(
    const std::vector<obs::JobSpan>& spans, double z_threshold) {
  std::vector<double> secs;
  secs.reserve(spans.size());
  for (const auto& s : spans) {
    if (s.start_ns >= 0 && s.end_ns >= s.start_ns) {
      secs.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  std::vector<Straggler> out;
  if (secs.size() < 2) return out;
  const double mean = stats::mean(secs);
  double var = 0.0;
  for (const double v : secs) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(secs.size()));
  if (sd <= 0.0) return out;
  for (const auto& s : spans) {
    if (s.start_ns < 0 || s.end_ns < s.start_ns) continue;
    const double v = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const double z = (v - mean) / sd;
    if (z > z_threshold) out.push_back(Straggler{s.job, z, v});
  }
  return out;
}

}  // namespace paraleon::runner
