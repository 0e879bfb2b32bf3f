#include "runner/flight.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/json.hpp"

namespace paraleon::runner {
namespace {

using common::Json;

bool write_json(const std::string& dir, const std::string& name,
                const Json& doc) {
  return obs::BundleWriter::write_file(dir, name, doc.dump() + "\n");
}

/// Per-switch per-port queue/pause state plus host uplinks.
Json ports_json(Experiment& exp) {
  auto& topo = exp.topology();
  Json switches = Json::make_array();
  const auto add_switch = [&switches](const char* kind, int index,
                                      sim::SwitchNode& sw) {
    Json ports = Json::make_array();
    for (int i = 0; i < sw.port_count(); ++i) {
      const sim::NetDevice& dev = sw.port(i);
      ports.push_back(Json::make_object({
          {"port", Json::make_int(i)},
          {"queue_bytes", Json::make_int(dev.data_queue_bytes())},
          {"paused_ns", Json::make_int(dev.paused_time())},
          {"data_paused", Json::make_bool(dev.data_paused())},
          {"pause_latched", Json::make_bool(sw.pfc_pause_latched(i))},
          {"ingress_bytes", Json::make_int(sw.ingress_bytes(i))},
          {"tx_data_bytes", Json::make_int(dev.tx_data_bytes())},
      }));
    }
    switches.push_back(Json::make_object({
        {"kind", Json::make_string(kind)},
        {"index", Json::make_int(index)},
        {"id", Json::make_int(sw.id())},
        {"buffer_used", Json::make_int(sw.buffer_used())},
        {"ports", std::move(ports)},
    }));
  };
  for (int t = 0; t < topo.tor_count(); ++t) add_switch("tor", t, topo.tor(t));
  for (int l = 0; l < topo.leaf_count(); ++l) {
    add_switch("leaf", l, topo.leaf(l));
  }
  Json hosts = Json::make_array();
  for (int h = 0; h < topo.host_count(); ++h) {
    const sim::NetDevice& up = topo.host(h).uplink();
    hosts.push_back(Json::make_object({
        {"id", Json::make_int(h)},
        {"uplink",
         Json::make_object({
             {"queue_bytes", Json::make_int(up.data_queue_bytes())},
             {"paused_ns", Json::make_int(up.paused_time())},
             {"data_paused", Json::make_bool(up.data_paused())},
             {"tx_data_bytes", Json::make_int(up.tx_data_bytes())},
         })},
    }));
  }
  return Json::make_object({
      {"schema", Json::make_string("paraleon.ports.v1")},
      {"switches", std::move(switches)},
      {"hosts", std::move(hosts)},
  });
}

}  // namespace

Json attribution_json(Experiment& exp, std::size_t top_k) {
  obs::AttributionEngine& attr = exp.simulator().obs().attribution();
  // Pull in what the hot paths deliberately defer: in-flight QP
  // accumulators and still-open pause spans.
  auto& topo = exp.topology();
  for (int h = 0; h < topo.host_count(); ++h) {
    topo.host(h).flush_attribution();
  }
  attr.finalize(exp.simulator().now());

  std::unordered_map<std::uint64_t, stats::FlowRecord> by_id;
  for (const auto& r : exp.fct().records()) by_id[r.flow_id] = r;

  Json victims = Json::make_array();
  for (const auto& v : attr.top_victims(top_k)) {
    Json victim = Json::make_object({
        {"flow", Json::make_uint(v.flow)},
        {"pfc_blocked_ns", Json::make_int(v.blocked)},
        {"rate_limited_ns", Json::make_int(v.rate_limited)},
    });
    auto& m = victim.members();
    const auto it = by_id.find(v.flow);
    if (it != by_id.end() && it->second.finish >= 0) {
      const stats::FlowRecord& r = it->second;
      const Time fct = r.finish - r.start;
      const Time ideal = std::max<Time>(
          1, topo.ideal_fct(r.size_bytes, static_cast<int>(r.src),
                            static_cast<int>(r.dst)));
      const Time other =
          std::max<Time>(0, fct - ideal - v.rate_limited - v.blocked);
      m.emplace_back("fct_ns", Json::make_int(fct));
      m.emplace_back("ideal_ns", Json::make_int(ideal));
      m.emplace_back("queue_other_ns", Json::make_int(other));
      m.emplace_back("slowdown",
                     Json::make_number(static_cast<double>(fct) /
                                       static_cast<double>(ideal)));
    } else {
      // Still in flight (or outside the tracker): no decomposition yet.
      m.emplace_back("fct_ns", Json::make_int(-1));
      m.emplace_back("ideal_ns", Json::make_int(-1));
      m.emplace_back("queue_other_ns", Json::make_int(0));
      m.emplace_back("slowdown", Json::make_int(0));
    }
    victims.push_back(std::move(victim));
  }
  return Json::make_object({
      {"schema", Json::make_string("paraleon.attribution.v1")},
      {"enabled", Json::make_bool(attr.enabled())},
      {"engine", attr.to_json()},
      {"victims", std::move(victims)},
  });
}

std::string write_flight_bundle(Experiment& exp, const std::string& reason,
                                const check::CheckFailure* failure) {
  const ExperimentConfig& cfg = exp.config();
  const std::string dir = cfg.obs.flight.dir + "/flight_" + reason;
  if (!obs::BundleWriter::create_dir(dir)) return {};

  sim::Simulator& sim = exp.simulator();
  const Time now = sim.now();
  const Time next_event = sim.next_event_time();

  Json files = Json::make_array();
  for (const char* f : {"config.json", "counters.json", "trace.json",
                        "ports.json", "episodes.json", "attribution.json",
                        "perf.json"}) {
    files.push_back(Json::make_string(f));
  }
  if (failure != nullptr) files.push_back(Json::make_string("failure.json"));

  bool ok = write_json(
      dir, "manifest.json",
      Json::make_object({
          {"schema", Json::make_string("paraleon.flight.v1")},
          {"reason", Json::make_string(reason)},
          {"trigger_ns", Json::make_int(now)},
          {"seed", Json::make_uint(cfg.seed)},
          {"scheme", Json::make_string(scheme_name(cfg.scheme))},
          {"events_executed", Json::make_uint(sim.events_executed())},
          {"queue_depth", Json::make_uint(sim.queue_depth())},
          {"next_event_ns",
           Json::make_int(next_event == kTimeNever ? -1 : next_event)},
          {"replay_until_ns",
           Json::make_int(now + obs::kFlightReplayMargin)},
          {"files", std::move(files)},
      }));
  const sim::ClosConfig& clos = cfg.clos;
  ok &= write_json(
      dir, "config.json",
      Json::make_object({
          {"scheme", Json::make_string(scheme_name(cfg.scheme))},
          {"seed", Json::make_uint(cfg.seed)},
          {"duration_ns", Json::make_int(cfg.duration)},
          {"n_tor", Json::make_int(clos.n_tor)},
          {"n_leaf", Json::make_int(clos.n_leaf)},
          {"hosts_per_tor", Json::make_int(clos.hosts_per_tor)},
          {"host_link_bps", Json::make_number(clos.host_link)},
          {"fabric_link_bps", Json::make_number(clos.fabric_link)},
          {"prop_delay_ns", Json::make_int(clos.prop_delay)},
          {"buffer_bytes", Json::make_int(clos.switch_cfg.buffer_bytes)},
          {"pfc_alpha", Json::make_number(clos.switch_cfg.pfc_alpha)},
          {"pfc_pause_duration_ns",
           Json::make_int(clos.switch_cfg.pfc_pause_duration)},
      }));
  ok &= write_json(dir, "counters.json", sim.obs().registry().to_json());
  ok &= obs::BundleWriter::write_file(dir, "trace.json",
                                      sim.obs().trace().to_json());
  ok &= write_json(dir, "ports.json", ports_json(exp));
  Json episodes = Json::make_array();
  for (const auto& c : exp.controllers()) {
    episodes.push_back(c->episode_log().to_json());
  }
  ok &= write_json(dir, "episodes.json", episodes);
  ok &= write_json(dir, "attribution.json", attribution_json(exp));
  ok &= write_json(
      dir, "perf.json",
      obs::perf_report_json(sim.obs().perf(), sim.obs().profiler()));
  if (failure != nullptr) {
    ok &= write_json(dir, "failure.json", check::failure_to_json(*failure));
  }
  return ok ? dir : std::string{};
}

bool load_replay_request(const std::string& bundle_dir, ReplayRequest* out) {
  bool ok = false;
  const std::string text =
      obs::BundleWriter::read_file(bundle_dir, "manifest.json", &ok);
  if (!ok) return false;
  try {
    const Json manifest = Json::parse(text, bundle_dir + "/manifest.json");
    const Json* seed = manifest.find("seed");
    const Json* trigger = manifest.find("trigger_ns");
    const Json* until = manifest.find("replay_until_ns");
    if (seed == nullptr || trigger == nullptr || until == nullptr) {
      return false;
    }
    ReplayRequest req;
    req.seed = seed->as_uint64("seed");
    req.trigger_ns = trigger->as_int64("trigger_ns");
    req.replay_until_ns = until->as_int64("replay_until_ns");
    *out = req;
    return true;
  } catch (const common::JsonError&) {
    return false;
  }
}

void apply_replay(ExperimentConfig& cfg, const ReplayRequest& req) {
  cfg.seed = req.seed;
  cfg.duration = req.replay_until_ns;
  // Everything on: the whole point of the replay is a full trace of the
  // window the original run did not record. Deep ring so the window fits.
  cfg.obs.trace = obs::TraceConfig::all_on(/*capacity=*/1u << 20);
  cfg.obs.attribution = true;
  // Re-firing the same trigger (or re-dumping on the same CheckFailure)
  // would clobber the bundle being replayed.
  cfg.obs.flight.armed = false;
}

bool write_replay_outputs(Experiment& exp, const std::string& bundle_dir) {
  bool ok = obs::BundleWriter::write_file(
      bundle_dir, "replay.trace.json",
      exp.simulator().obs().trace().to_json());
  ok &= write_json(bundle_dir, "replay.attribution.json",
                   attribution_json(exp));
  return ok;
}

}  // namespace paraleon::runner
