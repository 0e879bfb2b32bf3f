// The centralised PARALEON controller (§III-A, Fig. 1): an event-driven,
// closed-loop tuning entity scheduled every monitor interval.
//
// Each tick it (1) collects network-wide throughput/RTT/PFC from the
// topology, (2) runs every switch control-plane agent and aggregates their
// local flow size distributions, (3) compares successive FSDs with KL
// divergence and starts an SA episode when the traffic pattern shifted
// beyond theta, and (4) while an episode runs, feeds the measured utility
// to the SA tuner and dispatches the next candidate parameter setting to
// every RNIC and switch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "core/sa_tuner.hpp"
#include "core/utility.hpp"
#include "obs/episode_log.hpp"
#include "sim/topology.hpp"
#include "stats/timeseries.hpp"

namespace paraleon::core {

struct ControllerConfig {
  Time mi = milliseconds(1);    // monitor interval lambda_MI (Table III)
  double kl_theta = 0.01;       // tuning trigger threshold (Table III)
  UtilityWeights weights;       // Table III: 0.2 / 0.5 / 0.3
  SaConfig sa;
  /// false = the "No FSD" ablation: the SA receives elephant_share 0.5
  /// (unguided) and tuning triggers on a fixed cadence instead of KL.
  bool fsd_available = true;
  /// With fsd_available == false, retrigger a tuning episode every this
  /// many MIs after the previous one ends.
  int blind_retrigger_mi = 50;
  /// Minimum quiet MIs after an episode before the KL trigger may fire
  /// again — prevents back-to-back exploration on noisy traffic.
  int episode_cooldown_mi = 20;
  /// If > 0, re-trigger an episode after this many quiet MIs even without
  /// an FSD shift. Combined with the post-episode revert check this makes
  /// steady-workload tuning a ratchet: every episode starts from the best
  /// setting so far and regressions are rolled back. 0 = KL trigger only.
  int steady_retrigger_mi = 0;
  /// EMA factor for the FSD fed to the KL trigger (1.0 = no smoothing).
  /// Per-MI FSDs of open-loop traffic are noisy; the trigger compares
  /// smoothed snapshots so it fires on pattern shifts, not sampling noise.
  double fsd_ema = 0.3;
  /// Monitor intervals each SA candidate stays installed before its
  /// utility is reported (averaged). 1 reproduces Algorithm 1 literally;
  /// small fabrics benefit from 2-3 to de-noise the measurement.
  int eval_mi_per_candidate = 1;
  /// On the first KL-detected dominance flip, immediately move this many
  /// guided steps towards the new dominant flow type before the SA episode
  /// refines; later flips restore the regime's remembered setting instead.
  /// 0 disables.
  int trigger_kick_steps = 6;
  /// Post-episode safeguard: after installing the episode's best setting,
  /// measure utility for this many MIs and revert to the pre-episode
  /// setting if it regressed by more than `revert_margin` — a noisy 1-MI
  /// measurement can crown a "best" that is genuinely worse. 0 disables.
  int post_check_window_mi = 10;
  double revert_margin = 0.005;
  Time start = 0;
  std::uint64_t seed = 1;
  /// Devices this controller monitors and tunes. Default: the whole
  /// fabric. A per-pod controller (§V, large-scale deployments) scopes to
  /// its pod's hosts and ToRs and leaves the shared spine alone.
  MonitorScope scope;
};

class ParaleonController {
 public:
  ParaleonController(sim::Simulator* sim, sim::ClosTopology* topo,
                     const ControllerConfig& cfg);

  /// Registers a ToR control-plane agent (owned by the caller).
  void add_agent(SwitchAgent* agent) { agents_.push_back(agent); }

  /// Schedules the first monitor-interval tick.
  void start();

  /// Forces a tuning episode at the next tick (tests / offline
  /// pretraining) regardless of the KL trigger.
  void force_trigger() { forced_trigger_ = true; }

  // ---- results ----
  const stats::TimeSeries& utility_series() const { return util_series_; }
  const stats::TimeSeries& throughput_series() const { return tput_series_; }
  const stats::TimeSeries& rtt_series() const { return rtt_series_; }
  const stats::TimeSeries& elephant_share_series() const {
    return eleph_series_;
  }
  const Fsd& current_fsd() const { return fsd_; }
  const dcqcn::DcqcnParams& installed_params() const { return installed_; }
  bool tuning_active() const { return sa_.active(); }
  std::uint64_t episodes() const { return sa_.episodes(); }
  /// Episodes whose outcome regressed and was rolled back (safeguard).
  std::uint64_t reverts() const { return reverts_; }
  const SaTuner& tuner() const { return sa_; }
  /// Timeline of every tuning episode: trigger, trials, outcome.
  const obs::EpisodeLog& episode_log() const { return episode_log_; }

  struct Overheads {
    double controller_cpu_seconds = 0.0;
    std::int64_t switch_to_controller_bytes = 0;
    std::int64_t rnic_to_controller_bytes = 0;
    std::int64_t controller_to_devices_bytes = 0;
    std::uint64_t mi_ticks = 0;
    /// MI ticks during a tuning episode (the ticks that upload RNIC
    /// metrics).
    std::uint64_t tuning_mi_ticks = 0;
    /// Parameter settings sent, one per device per dispatch.
    std::uint64_t device_dispatches = 0;
  };
  const Overheads& overheads() const { return overheads_; }

 private:
  void tick();
  void dispatch(const dcqcn::DcqcnParams& p);

  sim::Simulator* sim_;
  sim::ClosTopology* topo_;
  ControllerConfig cfg_;
  std::vector<SwitchAgent*> agents_;
  MetricCollector collector_;
  SaTuner sa_;

  Fsd fsd_;
  Fsd smoothed_fsd_;       // EMA of fsd_, the KL trigger input
  Fsd prev_smoothed_fsd_;  // smoothed FSD at the last trigger decision
  bool have_prev_fsd_ = false;
  dcqcn::DcqcnParams installed_;
  // Starts beyond any cooldown so the first real traffic shift (e.g. the
  // workload starting) can trigger immediately; cooldown applies only
  // between episodes.
  int mi_since_episode_end_ = 1 << 20;
  int last_kick_dominant_ = -1;  // -1 = no regime seen yet
  dcqcn::DcqcnParams regime_params_[2];  // [0]=mice-, [1]=elephant-dominant
  bool have_regime_[2] = {false, false};
  bool forced_trigger_ = false;
  double eval_util_sum_ = 0.0;
  int eval_mi_count_ = 0;

  // Post-episode revert safeguard state.
  dcqcn::DcqcnParams pre_episode_params_;
  double pre_episode_util_ = 0.0;
  double idle_util_ema_ = -1.0;
  int post_check_remaining_ = 0;
  double post_util_sum_ = 0.0;
  int post_util_n_ = 0;
  std::uint64_t reverts_ = 0;

  stats::TimeSeries util_series_;
  stats::TimeSeries tput_series_;
  stats::TimeSeries rtt_series_;
  stats::TimeSeries eleph_series_;
  Overheads overheads_;
  obs::EpisodeLog episode_log_;
};

}  // namespace paraleon::core
