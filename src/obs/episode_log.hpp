// Tuning-episode timelines: a queryable record of every SA episode the
// controller runs — what triggered it (KL value / forced / blind / steady
// retrigger), every candidate parameter vector with its measured utility,
// the Metropolis accept/reject outcome and temperature, and how the
// episode ended (best setting, utility, post-check revert).
//
// This is the answer to "why did the scheme underperform here": the Fig. 8
// influx window becomes a list of concrete trials instead of an opaque
// throughput dip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"
#include "dcqcn/params.hpp"

namespace paraleon::obs {

class EpisodeLog {
 public:
  struct Trial {
    Time t = 0;
    int iteration = 0;         // SA iterations completed so far
    double temperature = 0.0;  // schedule temperature at this trial
    dcqcn::DcqcnParams params; // the setting the utility was measured under
    double utility = 0.0;      // measured utility, paper's 0-100 scale
    bool accepted = false;     // Metropolis outcome for this measurement
  };

  struct Episode {
    std::uint64_t index = 0;
    Time start = 0;
    Time end = -1;             // -1 while the episode is still running
    const char* trigger = "";  // "kl" | "forced" | "blind" | "steady"
    double kl_value = 0.0;     // KL divergence at trigger time
    dcqcn::DcqcnParams start_params;
    std::vector<Trial> trials;
    dcqcn::DcqcnParams best_params;
    double best_utility = 0.0;
    bool reverted = false;  // post-episode safeguard rolled the best back
  };

  Episode& begin(Time t, const char* trigger, double kl_value,
                 const dcqcn::DcqcnParams& start_params);
  void add_trial(const Trial& trial);
  void close(Time t, const dcqcn::DcqcnParams& best, double best_utility);
  void mark_last_reverted();

  bool open() const { return open_; }
  const std::vector<Episode>& episodes() const { return episodes_; }
  std::size_t trial_count() const;

  /// JSON array of episodes with nested trials; deterministic field order
  /// and number formatting.
  common::Json to_json() const;

 private:
  std::vector<Episode> episodes_;
  bool open_ = false;
};

/// The DCQCN parameter vector as deterministic JSON (shared by the episode
/// log and anything else that exports candidate settings).
common::Json params_to_json(const dcqcn::DcqcnParams& p);

}  // namespace paraleon::obs
