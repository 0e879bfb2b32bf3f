#include "obs/episode_log.hpp"

namespace paraleon::obs {

EpisodeLog::Episode& EpisodeLog::begin(Time t, const char* trigger,
                                       double kl_value,
                                       const dcqcn::DcqcnParams& start_params) {
  Episode ep;
  ep.index = episodes_.size();
  ep.start = t;
  ep.trigger = trigger;
  ep.kl_value = kl_value;
  ep.start_params = start_params;
  episodes_.push_back(std::move(ep));
  open_ = true;
  return episodes_.back();
}

void EpisodeLog::add_trial(const Trial& trial) {
  if (!open_) return;
  episodes_.back().trials.push_back(trial);
}

void EpisodeLog::close(Time t, const dcqcn::DcqcnParams& best,
                       double best_utility) {
  if (!open_) return;
  Episode& ep = episodes_.back();
  ep.end = t;
  ep.best_params = best;
  ep.best_utility = best_utility;
  open_ = false;
}

void EpisodeLog::mark_last_reverted() {
  if (!episodes_.empty()) episodes_.back().reverted = true;
}

std::size_t EpisodeLog::trial_count() const {
  std::size_t n = 0;
  for (const auto& ep : episodes_) n += ep.trials.size();
  return n;
}

common::Json params_to_json(const dcqcn::DcqcnParams& p) {
  using common::Json;
  const auto num = [](double v) { return Json::make_number(v); };
  return Json::make_object({
      {"ai_rate_mbps", num(to_mbps(p.ai_rate))},
      {"hai_rate_mbps", num(to_mbps(p.hai_rate))},
      {"rpg_time_reset_us", num(to_us(p.rpg_time_reset))},
      {"rpg_byte_reset", num(static_cast<double>(p.rpg_byte_reset))},
      {"rpg_threshold", num(p.rpg_threshold)},
      {"min_rate_mbps", num(to_mbps(p.min_rate))},
      {"rate_reduce_monitor_period_us",
       num(to_us(p.rate_reduce_monitor_period))},
      {"clamp_tgt_rate", num(p.clamp_tgt_rate ? 1.0 : 0.0)},
      {"alpha_update_period_us", num(to_us(p.alpha_update_period))},
      {"g", num(p.g)},
      {"min_time_between_cnps_us", num(to_us(p.min_time_between_cnps))},
      {"kmin_kb", num(static_cast<double>(p.kmin_bytes) / 1024.0)},
      {"kmax_kb", num(static_cast<double>(p.kmax_bytes) / 1024.0)},
      {"pmax", num(p.pmax)},
  });
}

common::Json EpisodeLog::to_json() const {
  using common::Json;
  Json out = Json::make_array();
  for (const auto& ep : episodes_) {
    Json trials = Json::make_array();
    for (const auto& tr : ep.trials) {
      trials.push_back(Json::make_object({
          {"t_ms", Json::make_number(to_ms(tr.t))},
          {"iteration", Json::make_int(tr.iteration)},
          {"temperature", Json::make_number(tr.temperature)},
          {"utility", Json::make_number(tr.utility)},
          {"accepted", Json::make_bool(tr.accepted)},
          {"params", params_to_json(tr.params)},
      }));
    }
    out.push_back(Json::make_object({
        {"index", Json::make_uint(ep.index)},
        {"start_ms", Json::make_number(to_ms(ep.start))},
        {"end_ms",
         ep.end < 0 ? Json::make_null() : Json::make_number(to_ms(ep.end))},
        {"trigger", Json::make_string(ep.trigger)},
        {"kl_value", Json::make_number(ep.kl_value)},
        {"reverted", Json::make_bool(ep.reverted)},
        {"start_params", params_to_json(ep.start_params)},
        {"best_utility", Json::make_number(ep.best_utility)},
        {"best_params", params_to_json(ep.best_params)},
        {"trials", std::move(trials)},
    }));
  }
  return out;
}

}  // namespace paraleon::obs
