#include "exec/shadow_fleet.hpp"

#include <chrono>
#include <cstddef>

// lint:allow-file(wall-clock) tune() reports wall_seconds next to the
// result — never in the episode log or any digest.

#include "core/monitor.hpp"
#include "core/param_space.hpp"
#include "exec/parallel_map.hpp"

namespace paraleon::exec {

ShadowFleet::ShadowFleet(ShadowFleetConfig cfg) : cfg_(cfg) {
  if (cfg_.fleet_size < 1) cfg_.fleet_size = 1;
}

double ShadowFleet::evaluate(const ShadowWindow& window,
                             const dcqcn::DcqcnParams& candidate) {
  return evaluate_run(window, candidate).utility;
}

ShadowFleet::ShadowEval ShadowFleet::evaluate_run(
    const ShadowWindow& window, const dcqcn::DcqcnParams& candidate) {
  runner::ExperimentConfig cfg = window.base;
  cfg.scheme = runner::Scheme::kCustomStatic;
  cfg.custom_params = candidate;
  runner::Experiment exp(cfg);
  if (window.setup) window.setup(exp);

  // Sample the utility inputs once per monitor interval, like the live
  // controller does, and average the window. The tick closure lives on
  // this stack frame, which outlives every event that copies it.
  core::MetricCollector collector(&exp.topology());
  const Time mi = cfg.controller.mi;
  double util_sum = 0.0;
  int util_n = 0;
  std::function<void()> tick;
  sim::Simulator& sim = exp.simulator();
  tick = [&] {
    const core::NetworkMetrics m = collector.collect(mi);
    if (sim.now() >= window.measure_from) {
      util_sum += core::utility(m, window.weights);
      ++util_n;
    }
    sim.schedule_in(mi, tick, "exec.shadow_probe");
  };
  sim.schedule_at(mi, tick, "exec.shadow_probe");
  exp.run();
  ShadowEval out;
  out.utility = util_n == 0 ? 0.0
                            : util_sum / static_cast<double>(util_n) *
                                  core::kUtilityScale;
  out.events = sim.events_executed();
  return out;
}

ShadowFleetResult ShadowFleet::tune(const ShadowWindow& window,
                                    const dcqcn::DcqcnParams& start) {
  const auto t0 = std::chrono::steady_clock::now();
  ShadowFleetResult res;
  core::SaTuner sa(
      core::ParamSpace::standard(window.base.clos.host_link,
                                 window.base.clos.switch_cfg.buffer_bytes),
      cfg_.sa, cfg_.seed);

  sa.begin_episode(start);
  const ShadowEval e0 = evaluate_run(window, start);
  const double u0 = e0.utility;
  sa.seed_utility(u0);
  res.evaluations = 1;
  // The seed evaluation is work but not speculation: it anchors the
  // chain, so it counts in evaluated/events_total and never in proposed.
  res.speculation.evaluated = 1;
  res.speculation.events_total = e0.events;
  res.episodes.begin(0, "shadow", 0.0, start);
  res.episodes.add_trial(
      {0, sa.iterations_done(), sa.temperature(), start, u0, true});

  const int jobs = cfg_.jobs == 0 ? cfg_.fleet_size : cfg_.jobs;
  Time clock = 1;  // pseudo-time: one tick per evaluated candidate
  while (sa.active()) {
    const std::vector<dcqcn::DcqcnParams> cands =
        sa.propose_batch(cfg_.fleet_size, cfg_.elephant_share);
    if (cands.empty()) break;
    const std::vector<ShadowEval> evals = parallel_map(
        cands,
        [&window](const dcqcn::DcqcnParams& c) {
          return evaluate_run(window, c);
        },
        jobs);
    std::vector<double> utils;
    utils.reserve(evals.size());
    for (const auto& e : evals) utils.push_back(e.utility);
    const auto outcomes = sa.observe_batch(utils);
    // observe_batch returns fewer outcomes than candidates when the SA
    // schedule ends mid-batch: the remaining siblings were evaluated on
    // spec and discarded. That surplus is exactly the wasted shadow work.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      res.episodes.add_trial({clock++, outcomes[i].iteration,
                              outcomes[i].temperature, cands[i], utils[i],
                              outcomes[i].accepted});
      if (outcomes[i].accepted) ++res.speculation.accepted;
    }
    res.evaluations += static_cast<int>(cands.size());
    res.speculation.proposed += static_cast<std::int64_t>(cands.size());
    res.speculation.evaluated += static_cast<std::int64_t>(cands.size());
    res.speculation.wasted +=
        static_cast<std::int64_t>(cands.size() - outcomes.size());
    for (std::size_t i = 0; i < evals.size(); ++i) {
      res.speculation.events_total += evals[i].events;
      if (i >= outcomes.size()) {
        res.speculation.events_wasted += evals[i].events;
      }
    }
    ++res.batches;
  }
  res.episodes.close(clock, sa.best(), sa.best_utility());
  res.best = sa.best();
  res.best_utility = sa.best_utility();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

}  // namespace paraleon::exec
