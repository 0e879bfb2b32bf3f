#include "core/controller.hpp"

#include <chrono>

// lint:allow-file(wall-clock) controller CPU time is an overhead metric
// (Table IV); it feeds Overheads reporting only, never any digest.

namespace paraleon::core {

namespace {
/// Serialized message sizes for the Table IV data-transfer accounting.
/// RNIC -> controller: RTT + PFC scalars (paper: 12 B).
constexpr std::int64_t kRnicUploadBytes = 12;
/// Controller -> device: the full DCQCN parameter setting (paper: 76 B).
constexpr std::int64_t kDispatchBytes = 76;
}  // namespace

ParaleonController::ParaleonController(sim::Simulator* sim,
                                       sim::ClosTopology* topo,
                                       const ControllerConfig& cfg)
    : sim_(sim),
      topo_(topo),
      cfg_(cfg),
      collector_(topo, cfg.scope),
      sa_(ParamSpace::standard(topo->config().host_link,
                               topo->config().switch_cfg.buffer_bytes),
          cfg.sa, cfg.seed),
      installed_(topo->config().dcqcn) {}

void ParaleonController::start() {
  sim_->schedule_at(cfg_.start + cfg_.mi, [this] { tick(); }, "core.mi_tick");
}

void ParaleonController::dispatch(const dcqcn::DcqcnParams& p) {
  installed_ = p;
  if (cfg_.scope.is_full()) {
    topo_->set_dcqcn_params_all(p);
  } else {
    for (int h : collector_.hosts()) topo_->host(h).set_dcqcn_params(p);
    const sim::EcnConfig ecn{p.kmin_bytes, p.kmax_bytes, p.pmax};
    for (int t : collector_.tors()) topo_->tor(t).set_ecn(ecn);
    for (int l : collector_.leaves()) topo_->leaf(l).set_ecn(ecn);
  }
  const auto devices = collector_.hosts().size() +
                       collector_.tors().size() +
                       collector_.leaves().size();
  overheads_.controller_to_devices_bytes +=
      kDispatchBytes * static_cast<std::int64_t>(devices);
  overheads_.device_dispatches += devices;
}

void ParaleonController::tick() {
  const auto t0 = std::chrono::steady_clock::now();
  ++overheads_.mi_ticks;
  const Time now = sim_->now();

  // (1) Runtime metric collection (Fig. 2, pink path). Metric upload cost
  // is only incurred while a tuning episode needs feedback (event-driven).
  const NetworkMetrics metrics = collector_.collect(cfg_.mi);
  if (sa_.active()) {
    ++overheads_.tuning_mi_ticks;
    overheads_.rnic_to_controller_bytes +=
        kRnicUploadBytes * static_cast<std::int64_t>(collector_.hosts().size());
  }

  // (2) FSD measurement (Fig. 2, yellow path) runs continuously.
  FsdBuilder agg;
  for (SwitchAgent* agent : agents_) {
    agent->on_monitor_interval();
    agg.merge(agent->local_fsd());
    overheads_.switch_to_controller_bytes +=
        static_cast<std::int64_t>(agent->upload_bytes());
  }
  prev_smoothed_fsd_ = smoothed_fsd_;
  fsd_ = agg.build();
  if (!have_prev_fsd_) {
    smoothed_fsd_ = fsd_;
  } else {
    const double a = cfg_.fsd_ema;
    for (std::size_t i = 0; i < kFsdBuckets; ++i) {
      smoothed_fsd_.probs[i] =
          a * fsd_.probs[i] + (1.0 - a) * smoothed_fsd_.probs[i];
    }
    smoothed_fsd_.elephant_share = a * fsd_.elephant_share +
                                   (1.0 - a) * smoothed_fsd_.elephant_share;
    smoothed_fsd_.active_flows =
        a * fsd_.active_flows + (1.0 - a) * smoothed_fsd_.active_flows;
  }

  // (3) Trigger logic. The KL value is computed once and shared by the
  // trigger test, the monitor trace and the episode timeline.
  const double kl =
      have_prev_fsd_ ? kl_divergence(smoothed_fsd_, prev_smoothed_fsd_) : 0.0;
  bool trigger = forced_trigger_;
  const char* trigger_reason = forced_trigger_ ? "forced" : "";
  forced_trigger_ = false;
  if (!sa_.active()) {
    ++mi_since_episode_end_;
    if (cfg_.fsd_available) {
      if (have_prev_fsd_ &&
          mi_since_episode_end_ >= cfg_.episode_cooldown_mi &&
          kl > cfg_.kl_theta) {
        if (!trigger) trigger_reason = "kl";
        trigger = true;
      }
      if (cfg_.steady_retrigger_mi > 0 &&
          mi_since_episode_end_ >= cfg_.steady_retrigger_mi) {
        if (!trigger) trigger_reason = "steady";
        trigger = true;
      }
    } else if (mi_since_episode_end_ >= cfg_.blind_retrigger_mi) {
      // No-FSD ablation: blind periodic retriggering.
      if (!trigger) trigger_reason = "blind";
      trigger = true;
    }
  }
  have_prev_fsd_ = true;

  obs::TraceRecorder& tr = sim_->obs().trace();
  if (tr.enabled(obs::TraceCategory::kMonitor)) {
    tr.instant(obs::TraceCategory::kMonitor, "monitor.tick", now, 0, 0,
               {{"kl_micro", static_cast<std::int64_t>(kl * 1e6)},
                {"elephant_milli", static_cast<std::int64_t>(
                                       fsd_.elephant_share * 1000.0)},
                {"active_flows",
                 static_cast<std::int64_t>(fsd_.active_flows)}});
  }

  if (trigger && !sa_.active()) {
    pre_episode_params_ = installed_;
    pre_episode_util_ = idle_util_ema_;
    post_check_remaining_ = 0;  // cancel any pending post check
    dcqcn::DcqcnParams start = installed_;
    // React to a dominance flip (elephants <-> mice): restore the setting
    // this regime converged to last time (online "mode memory"), or take
    // guided kick steps towards the new dominant type on first sight.
    // Repeated same-direction kicks on an unchanged pattern would walk the
    // parameters to the extremes, hence the flip condition. The decision
    // uses the *instantaneous* FSD: the smoothed one (the trigger input)
    // still lags the very shift that fired the trigger.
    const int dominant = fsd_.elephants_dominant() ? 1 : 0;
    if (cfg_.fsd_available && dominant != last_kick_dominant_) {
      if (last_kick_dominant_ >= 0) {
        regime_params_[last_kick_dominant_] = installed_;
        have_regime_[last_kick_dominant_] = true;
      }
      if (have_regime_[dominant]) {
        start = regime_params_[dominant];
      } else if (cfg_.trigger_kick_steps > 0) {
        start = sa_.kick(installed_, fsd_.elephant_share,
                         cfg_.trigger_kick_steps);
      }
      dispatch(start);
      last_kick_dominant_ = dominant;
    }
    sa_.begin_episode(start);
    episode_log_.begin(now, trigger_reason, kl, start);
    if (tr.enabled(obs::TraceCategory::kSa)) {
      tr.instant(obs::TraceCategory::kSa, "sa.episode_begin", now, 0, 0,
                 {{"episode", static_cast<std::int64_t>(sa_.episodes())},
                  {"kl_micro", static_cast<std::int64_t>(kl * 1e6)}});
    }
    mi_since_episode_end_ = 0;
  }

  // (4) SA iteration: one candidate per evaluation window (Algorithm 1
  // uses one MI; eval_mi_per_candidate > 1 averages the measurement).
  const double u = utility(metrics, cfg_.weights);
  if (sa_.active()) {
    eval_util_sum_ += u;
    ++eval_mi_count_;
    if (eval_mi_count_ >= std::max(1, cfg_.eval_mi_per_candidate)) {
      const double avg_u = eval_util_sum_ / eval_mi_count_;
      eval_util_sum_ = 0.0;
      eval_mi_count_ = 0;
      const double share =
          cfg_.fsd_available ? smoothed_fsd_.elephant_share : 0.5;
      // The measurement belongs to the setting installed *before* this
      // step swaps in the next candidate.
      const dcqcn::DcqcnParams measured = installed_;
      const dcqcn::DcqcnParams next =
          sa_.step(avg_u * kUtilityScale, share);
      episode_log_.add_trial({now, sa_.iterations_done(), sa_.temperature(),
                              measured, avg_u * kUtilityScale,
                              sa_.last_accepted()});
      if (tr.enabled(obs::TraceCategory::kSa)) {
        tr.instant(
            obs::TraceCategory::kSa, "sa.trial", now, 0, 0,
            {{"utility_milli",
              static_cast<std::int64_t>(avg_u * kUtilityScale * 1000.0)},
             {"accepted", sa_.last_accepted() ? 1 : 0},
             {"temp_milli",
              static_cast<std::int64_t>(sa_.temperature() * 1000.0)}});
      }
      dispatch(next);
      if (!sa_.active()) {
        episode_log_.close(now, sa_.best(), sa_.best_utility());
        if (tr.enabled(obs::TraceCategory::kSa)) {
          tr.instant(obs::TraceCategory::kSa, "sa.episode_end", now, 0, 0,
                     {{"episode", static_cast<std::int64_t>(sa_.episodes())},
                      {"best_utility_milli", static_cast<std::int64_t>(
                                                 sa_.best_utility() * 1000.0)},
                      {"trials", static_cast<std::int64_t>(
                                     episode_log_.trial_count())}});
        }
        mi_since_episode_end_ = 0;
        // Arm the post-episode regression check for the installed best.
        if (cfg_.post_check_window_mi > 0 && idle_util_ema_ >= 0.0) {
          post_check_remaining_ = cfg_.post_check_window_mi;
          post_util_sum_ = 0.0;
          post_util_n_ = 0;
        }
      }
    }
  } else {
    eval_util_sum_ = 0.0;
    eval_mi_count_ = 0;
    // Track baseline utility while not tuning (pre-episode reference).
    idle_util_ema_ = idle_util_ema_ < 0.0
                         ? u
                         : 0.2 * u + 0.8 * idle_util_ema_;
    if (post_check_remaining_ > 0) {
      post_util_sum_ += u;
      ++post_util_n_;
      if (--post_check_remaining_ == 0) {
        const double post_avg = post_util_sum_ / post_util_n_;
        if (post_avg < pre_episode_util_ - cfg_.revert_margin) {
          ++reverts_;
          episode_log_.mark_last_reverted();
          if (tr.enabled(obs::TraceCategory::kSa)) {
            tr.instant(
                obs::TraceCategory::kSa, "sa.revert", now, 0, 0,
                {{"post_utility_milli",
                  static_cast<std::int64_t>(post_avg * 1000.0)},
                 {"pre_utility_milli",
                  static_cast<std::int64_t>(pre_episode_util_ * 1000.0)}});
          }
          dispatch(pre_episode_params_);
        }
      }
    }
  }

  util_series_.add(now, u);
  tput_series_.add(now, metrics.total_tx_gbps);
  rtt_series_.add(now, metrics.avg_rtt_us);
  eleph_series_.add(now, fsd_.elephant_share);

  overheads_.controller_cpu_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sim_->schedule_in(cfg_.mi, [this] { tick(); }, "core.mi_tick");
}

}  // namespace paraleon::core
