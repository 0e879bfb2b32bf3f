#include "runner/flight.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace paraleon::runner {
namespace {

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + items[i] + "\"";
  }
  return out + "]";
}

}  // namespace

std::string attribution_json(Experiment& exp, std::size_t top_k) {
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

  std::ostringstream out;
  out << "{\n\"schema\": \"paraleon.attribution.v1\",\n\"enabled\": "
      << (attr.enabled() ? "true" : "false") << ",\n\"engine\": "
      << attr.to_json() << ",\n\"victims\": [";
  const auto victims = attr.top_victims(top_k);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto& v = victims[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "  {\"flow\": " << v.flow << ", \"pfc_blocked_ns\": " << v.blocked
        << ", \"rate_limited_ns\": " << v.rate_limited;
    const auto it = by_id.find(v.flow);
    if (it != by_id.end() && it->second.finish >= 0) {
      const stats::FlowRecord& r = it->second;
      const Time fct = r.finish - r.start;
      const Time ideal = std::max<Time>(
          1, topo.ideal_fct(r.size_bytes, static_cast<int>(r.src),
                            static_cast<int>(r.dst)));
      const Time other =
          std::max<Time>(0, fct - ideal - v.rate_limited - v.blocked);
      out << ", \"fct_ns\": " << fct << ", \"ideal_ns\": " << ideal
          << ", \"queue_other_ns\": " << other << ", \"slowdown\": "
          << obs::format_value(static_cast<double>(fct) /
                               static_cast<double>(ideal));
    } else {
      // Still in flight (or outside the tracker): no decomposition yet.
      out << ", \"fct_ns\": -1, \"ideal_ns\": -1, \"queue_other_ns\": 0"
          << ", \"slowdown\": 0";
    }
    out << "}";
  }
  out << (victims.empty() ? "]" : "\n]") << "\n}";
  return out.str();
}

std::string write_flight_bundle(Experiment& exp, const std::string& reason,
                                const check::CheckFailure* failure) {
  const ExperimentConfig& cfg = exp.config();
  const std::string dir = cfg.obs.flight.dir + "/flight_" + reason;
  if (!obs::BundleWriter::create_dir(dir)) return {};

  sim::Simulator& sim = exp.simulator();
  const Time now = sim.now();
  const Time next_event = sim.next_event_time();
  const Time replay_until = now + cfg.obs.flight.replay_margin;

  std::vector<std::string> files = {"config.json",   "replay.cfg",
                                    "counters.json", "trace.json",
                                    "ports.json",    "episodes.json",
                                    "attribution.json", "perf.json"};
  if (failure != nullptr) files.push_back("failure.json");

  bool ok = true;
  {
    std::ostringstream m;
    m << "{\n\"schema\": \"paraleon.flight.v1\",\n\"reason\": \"" << reason
      << "\",\n\"trigger_ns\": " << now << ",\n\"seed\": " << cfg.seed
      << ",\n\"scheme\": \"" << scheme_name(cfg.scheme)
      << "\",\n\"events_executed\": " << sim.events_executed()
      << ",\n\"queue_depth\": " << sim.queue_depth()
      << ",\n\"next_event_ns\": "
      << (next_event == kTimeNever ? -1 : next_event)
      << ",\n\"replay_until_ns\": " << replay_until << ",\n\"files\": "
      << json_list(files) << "\n}";
    ok &= obs::BundleWriter::write_file(dir, "manifest.json", m.str());
  }
  {
    const sim::ClosConfig& clos = cfg.clos;
    std::ostringstream c;
    c << "{\n\"scheme\": \"" << scheme_name(cfg.scheme)
      << "\",\n\"seed\": " << cfg.seed << ",\n\"duration_ns\": "
      << cfg.duration << ",\n\"n_tor\": " << clos.n_tor << ",\n\"n_leaf\": "
      << clos.n_leaf << ",\n\"hosts_per_tor\": " << clos.hosts_per_tor
      << ",\n\"host_link_bps\": " << obs::format_value(clos.host_link)
      << ",\n\"fabric_link_bps\": " << obs::format_value(clos.fabric_link)
      << ",\n\"prop_delay_ns\": " << clos.prop_delay
      << ",\n\"buffer_bytes\": " << clos.switch_cfg.buffer_bytes
      << ",\n\"pfc_alpha\": " << obs::format_value(clos.switch_cfg.pfc_alpha)
      << ",\n\"pfc_pause_duration_ns\": " << clos.switch_cfg.pfc_pause_duration
      << "\n}";
    ok &= obs::BundleWriter::write_file(dir, "config.json", c.str());
  }
  {
    std::ostringstream r;
    r << "seed " << cfg.seed << "\n"
      << "trigger_ns " << now << "\n"
      << "replay_until_ns " << replay_until << "\n";
    ok &= obs::BundleWriter::write_file(dir, "replay.cfg", r.str());
  }
  ok &= obs::BundleWriter::write_file(dir, "counters.json",
                                      sim.obs().registry().to_json());
  ok &= obs::BundleWriter::write_file(dir, "trace.json",
                                      sim.obs().trace().to_json());
  {
    auto& topo = exp.topology();
    std::ostringstream p;
    p << "{\n\"schema\": \"paraleon.ports.v1\",\n\"switches\": [";
    bool first_sw = true;
    const auto dump_switch = [&](const char* kind, int index,
                                 sim::SwitchNode& sw) {
      p << (first_sw ? "\n" : ",\n");
      first_sw = false;
      p << "  {\"kind\": \"" << kind << "\", \"index\": " << index
        << ", \"id\": " << sw.id() << ", \"buffer_used\": "
        << sw.buffer_used() << ", \"ports\": [";
      for (int i = 0; i < sw.port_count(); ++i) {
        const sim::NetDevice& dev = sw.port(i);
        if (i != 0) p << ", ";
        p << "{\"port\": " << i << ", \"queue_bytes\": "
          << dev.data_queue_bytes() << ", \"paused_ns\": " << dev.paused_time()
          << ", \"data_paused\": " << (dev.data_paused() ? "true" : "false")
          << ", \"pause_latched\": "
          << (sw.pfc_pause_latched(i) ? "true" : "false")
          << ", \"ingress_bytes\": " << sw.ingress_bytes(i)
          << ", \"tx_data_bytes\": " << dev.tx_data_bytes() << "}";
      }
      p << "]}";
    };
    for (int t = 0; t < topo.tor_count(); ++t) {
      dump_switch("tor", t, topo.tor(t));
    }
    for (int l = 0; l < topo.leaf_count(); ++l) {
      dump_switch("leaf", l, topo.leaf(l));
    }
    p << (first_sw ? "]" : "\n]") << ",\n\"hosts\": [";
    for (int h = 0; h < topo.host_count(); ++h) {
      const sim::NetDevice& up = topo.host(h).uplink();
      p << (h == 0 ? "\n" : ",\n");
      p << "  {\"id\": " << h << ", \"uplink\": {\"queue_bytes\": "
        << up.data_queue_bytes() << ", \"paused_ns\": " << up.paused_time()
        << ", \"data_paused\": " << (up.data_paused() ? "true" : "false")
        << ", \"tx_data_bytes\": " << up.tx_data_bytes() << "}}";
    }
    p << (topo.host_count() == 0 ? "]" : "\n]") << "\n}";
    ok &= obs::BundleWriter::write_file(dir, "ports.json", p.str());
  }
  {
    std::string e = "[";
    bool first = true;
    for (const auto& c : exp.controllers()) {
      if (!first) e += ", ";
      first = false;
      e += c->episode_log().to_json();
    }
    e += "]";
    ok &= obs::BundleWriter::write_file(dir, "episodes.json", e);
  }
  ok &= obs::BundleWriter::write_file(dir, "attribution.json",
                                      attribution_json(exp));
  ok &= obs::BundleWriter::write_file(
      dir, "perf.json",
      obs::perf_report_json(sim.obs().perf(), sim.obs().profiler()));
  if (failure != nullptr) {
    ok &= obs::BundleWriter::write_file(dir, "failure.json",
                                        check::failure_to_json(*failure));
  }
  return ok ? dir : std::string{};
}

bool load_replay_request(const std::string& bundle_dir, ReplayRequest* out) {
  bool ok = false;
  const std::string text =
      obs::BundleWriter::read_file(bundle_dir, "replay.cfg", &ok);
  if (!ok) return false;
  ReplayRequest req;
  bool have_seed = false, have_until = false;
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    if (key == "seed") {
      have_seed = static_cast<bool>(in >> req.seed);
    } else if (key == "trigger_ns") {
      if (!(in >> req.trigger_ns)) return false;
    } else if (key == "replay_until_ns") {
      have_until = static_cast<bool>(in >> req.replay_until_ns);
    } else {
      // Unknown keys are skipped (forward compatibility).
      std::string ignored;
      in >> ignored;
    }
  }
  if (!have_seed || !have_until) return false;
  *out = req;
  return true;
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
  ok &= obs::BundleWriter::write_file(bundle_dir, "replay.attribution.json",
                                      attribution_json(exp));
  return ok;
}

}  // namespace paraleon::runner
