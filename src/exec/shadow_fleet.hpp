// ShadowFleet: batched simulated-annealing tuning over concurrent shadow
// experiments.
//
// The live controller evaluates one SA candidate per monitor interval on
// the production fabric, so an episode's wall-clock cost is iterations x
// lambda_MI. The shadow fleet moves the episode offline: each round it
// asks the tuner for K sibling candidates (SaTuner::propose_batch),
// replays the recorded workload window under each candidate in K
// independent shadow Experiments — fanned across the thread pool — and
// feeds the measured utilities back through the batch Metropolis test
// (SaTuner::observe_batch). Convergence wall-clock divides by up to K at
// the cost of speculative evaluations (siblings of one parent instead of
// a sequential chain); with K == 1 the tuner's RNG draw sequence, and
// therefore the whole episode log, is byte-identical to the serial loop.
#pragma once

#include <cstdint>
#include <functional>

#include "core/sa_tuner.hpp"
#include "core/utility.hpp"
#include "obs/episode_log.hpp"
#include "runner/experiment.hpp"

namespace paraleon::exec {

/// The recorded workload window every shadow experiment replays: base
/// config (scheme/params are overridden per candidate) plus the workload
/// installation. `setup` runs once per shadow experiment, possibly
/// concurrently — it must only touch the experiment it is given.
struct ShadowWindow {
  runner::ExperimentConfig base;
  std::function<void(runner::Experiment&)> setup;
  core::UtilityWeights weights;
  /// Skip this much warmup before utility samples count (ramp-up of the
  /// replayed window would otherwise bias every candidate equally low).
  Time measure_from = 0;
};

struct ShadowFleetConfig {
  core::SaConfig sa;
  /// Candidates proposed and evaluated per batch (K). 1 = the serial
  /// reference: same proposals, same acceptances, same episode log as
  /// driving the tuner step by step.
  int fleet_size = 4;
  /// Worker threads for the batch evaluations; 0 = one per candidate.
  int jobs = 0;
  /// Elephant share fed to guided mutation (0.5 = unguided), fixed for
  /// the window since a recorded window has one traffic pattern.
  double elephant_share = 0.5;
  std::uint64_t seed = 1;
};

/// Speculation accounting: how much shadow work the batched SA episode
/// bought and wasted versus the serial chain. Pure function of window +
/// config (simulated-event totals, not wall time).
struct SpeculationStats {
  std::int64_t proposed = 0;   // candidates from propose_batch
  std::int64_t evaluated = 0;  // shadow experiments run (incl. the seed)
  std::int64_t accepted = 0;   // Metropolis-accepted candidates
  /// Evaluated but discarded: the SA schedule finished mid-batch, so the
  /// remaining sibling measurements never reached the Metropolis test.
  std::int64_t wasted = 0;
  std::uint64_t events_total = 0;   // simulator events across shadow runs
  std::uint64_t events_wasted = 0;  // events of the discarded runs
};

struct ShadowFleetResult {
  dcqcn::DcqcnParams best;
  double best_utility = 0.0;
  /// Shadow experiments run, including speculative evaluations discarded
  /// when the schedule finished mid-batch.
  int evaluations = 0;
  int batches = 0;
  /// One "shadow" episode; trial times are evaluation indices, not
  /// simulated time. Deterministic: a pure function of window + config.
  obs::EpisodeLog episodes;
  /// Speculation accounting: how much shadow work the batching proposed,
  /// evaluated, accepted and wasted (candidates evaluated after the SA
  /// schedule ended mid-batch, plus their simulated-event cost). A pure
  /// function of window + config, like the episode log; with K == 1
  /// nothing is ever wasted.
  SpeculationStats speculation;
  /// Wall-clock of the whole tune, reported next to the result — never
  /// part of the episode log or any digest.
  double wall_seconds = 0.0;
};

// Concurrency note: ShadowFleet holds no shared mutable state — cfg_ is
// written only in the constructor, and each shadow evaluation builds its
// own Experiment on the worker's stack (the thread-compatibility
// invariant in runner/experiment.hpp). The only cross-thread structures
// it touches are the annotated ThreadPool/JobSet inside parallel_map, so
// there is deliberately no Mutex here: confinement, not locking.
class ShadowFleet {
 public:
  explicit ShadowFleet(ShadowFleetConfig cfg);

  /// One shadow evaluation's outputs: the utility the Metropolis test
  /// consumes plus the simulated-event cost of producing it (the unit the
  /// speculation accounting charges wasted work in).
  struct ShadowEval {
    double utility = 0.0;
    std::uint64_t events = 0;
  };

  /// Replays `window` under one candidate setting and returns the mean
  /// utility on the tuner's 0-100 scale. Exposed for tests and for
  /// benches that want to score a single setting.
  static double evaluate(const ShadowWindow& window,
                         const dcqcn::DcqcnParams& candidate);

  /// evaluate() plus the run's executed-event count.
  static ShadowEval evaluate_run(const ShadowWindow& window,
                                 const dcqcn::DcqcnParams& candidate);

  /// Runs one full SA episode from `start` and returns the best setting
  /// found, the episode timeline and the evaluation/wall-clock accounting.
  ShadowFleetResult tune(const ShadowWindow& window,
                         const dcqcn::DcqcnParams& start);

 private:
  ShadowFleetConfig cfg_;
};

}  // namespace paraleon::exec
