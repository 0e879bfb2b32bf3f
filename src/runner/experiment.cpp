#include "runner/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "check/check.hpp"
#include "check/digest.hpp"
#include "runner/flight.hpp"

namespace paraleon::runner {

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.event_queue) {
  // Every per-interval tick reschedules itself one interval ahead: a zero
  // interval would spin forever at one instant.
  PARALEON_CHECK(cfg_.controller.mi > 0,
                 "controller.mi must be > 0 ns, got ", cfg_.controller.mi);
  // Observability knobs first so construction-time registrations and the
  // earliest events already see the final configuration. An armed flight
  // recorder implies attribution: its bundles carry attribution.json.
  sim_.obs().trace().configure(cfg_.obs.trace);
  sim_.obs().profiler().set_enabled(cfg_.obs.profile_loop);
  sim_.obs().perf().set_enabled(cfg_.obs.perf_counters);
  sim_.obs().attribution().set_enabled(cfg_.obs.attribution ||
                                       cfg_.obs.flight.armed);
  flight_trigger_count_ = sim_.obs().registry().counter("flight.triggers");

  // The scheme dictates the initial parameter setting.
  if (cfg_.scheme == Scheme::kCustomStatic) {
    cfg_.clos.dcqcn = cfg_.custom_params;
  } else {
    cfg_.clos.dcqcn =
        initial_params_for(cfg_.scheme, cfg_.clos.host_link);
  }
  cfg_.clos.seed = cfg_.seed;
  topo_ = std::make_unique<sim::ClosTopology>(&sim_, cfg_.clos);

  if (cfg_.invariants.level != check::CheckLevel::kOff) {
    checker_ =
        std::make_unique<check::InvariantChecker>(&sim_, cfg_.invariants);
    checker_->watch(*topo_);
  }

  fct_ = std::make_unique<stats::FctTracker>(
      [this](std::int64_t size, std::uint32_t src, std::uint32_t dst) {
        return topo_->ideal_fct(size, static_cast<int>(src),
                                static_cast<int>(dst));
      });

  for (int h = 0; h < topo_->host_count(); ++h) {
    topo_->host(h).set_on_flow_complete([this](std::uint64_t id, Time t) {
      fct_->on_flow_finish(id, t);
      for (auto& w : workloads_) w->on_flow_complete(id, t);
    });
  }

  wire_scheme();
  schedule_probe();
}

void Experiment::wire_scheme() {
  const Scheme s = cfg_.scheme;

  // Data-plane measurement instruments, one set per attached ToR sketch.
  const auto register_sketch = [this](int t, sketch::ElasticSketch* raw) {
    obs::Registry& reg = sim_.obs().registry();
    const std::string prefix = "sketch.tor." + std::to_string(t);
    reg.gauge(prefix + ".insertions",
              [raw] { return static_cast<double>(raw->insertions()); });
    reg.gauge(prefix + ".evictions",
              [raw] { return static_cast<double>(raw->evictions()); });
    reg.gauge(prefix + ".ostracism_votes",
              [raw] { return static_cast<double>(raw->ostracism_votes()); });
  };
  // Tuning-loop instruments, one set per controller.
  const auto register_controller = [this](std::size_t i,
                                          core::ParaleonController* c) {
    obs::Registry& reg = sim_.obs().registry();
    const std::string prefix = "controller." + std::to_string(i);
    reg.gauge(prefix + ".sa.episodes",
              [c] { return static_cast<double>(c->episodes()); });
    reg.gauge(prefix + ".sa.reverts",
              [c] { return static_cast<double>(c->reverts()); });
    reg.gauge(prefix + ".sa.iterations", [c] {
      return static_cast<double>(c->tuner().iterations_done());
    });
    reg.gauge(prefix + ".sa.active",
              [c] { return c->tuning_active() ? 1.0 : 0.0; });
    reg.gauge(prefix + ".mi_ticks", [c] {
      return static_cast<double>(c->overheads().mi_ticks);
    });
  };

  if (s == Scheme::kParaleonPerPod) {
    // §V large-scale mode: one scoped controller per ToR pod, tuning only
    // its pod's RNICs and ToR; the shared spine keeps its static setting.
    for (int t = 0; t < topo_->tor_count(); ++t) {
      core::ControllerConfig ctrl = cfg_.controller;
      ctrl.seed = (cfg_.seed ^ 0xC0FFEEull) * 1000003ull +
                  static_cast<std::uint64_t>(t);
      ctrl.scope.tors = {t};
      ctrl.scope.include_leaves = false;
      for (int h = 0; h < topo_->host_count(); ++h) {
        if (topo_->tor_of_host(h) == t) ctrl.scope.hosts.push_back(h);
      }
      controllers_.push_back(std::make_unique<core::ParaleonController>(
          &sim_, topo_.get(), ctrl));
      register_controller(controllers_.size() - 1, controllers_.back().get());
      auto es = std::make_unique<sketch::ElasticSketch>(cfg_.sketch);
      sketch::ElasticSketch* raw = es.get();
      register_sketch(t, raw);
      topo_->tor(t).attach_sketch(
          checker_ ? checker_->wrap_sketch(raw)
                   : static_cast<sim::SketchHook*>(raw));
      sketches_.push_back(std::move(es));
      agents_.push_back(std::make_unique<core::SwitchAgent>(
          cfg_.agent, [raw] {
            auto v = raw->heavy_flows();
            raw->reset();
            return v;
          }));
      controllers_.back()->add_agent(agents_.back().get());
      controllers_.back()->start();
    }
    return;
  }

  if (scheme_has_controller(s)) {
    core::ControllerConfig ctrl = cfg_.controller;
    ctrl.seed = cfg_.seed ^ 0xC0FFEEull;
    core::AgentConfig agent_cfg = cfg_.agent;

    switch (s) {
      case Scheme::kParaleon:
        break;
      case Scheme::kParaleonNaiveSa: {
        core::SaConfig naive = core::SaConfig::naive();
        // Keep the episode length knobs the experiment chose; only the
        // ablated optimisations change.
        naive.total_iter_num = ctrl.sa.total_iter_num;
        naive.initial_temp = ctrl.sa.initial_temp;
        naive.final_temp = ctrl.sa.final_temp;
        naive.eta = ctrl.sa.eta;
        ctrl.sa = naive;
        break;
      }
      case Scheme::kParaleonNoFsd:
        ctrl.fsd_available = false;
        break;
      case Scheme::kParaleonNetflow:
        agent_cfg.mode = core::AgentConfig::Mode::kPerInterval;
        agent_cfg.export_every_mi = cfg_.netflow_export_every_mi;
        break;
      case Scheme::kParaleonNaiveSketch:
        agent_cfg.mode = core::AgentConfig::Mode::kPerInterval;
        agent_cfg.export_every_mi = 1;
        break;
      default:
        break;
    }

    controllers_.push_back(std::make_unique<core::ParaleonController>(
        &sim_, topo_.get(), ctrl));
    core::ParaleonController* controller = controllers_.back().get();
    register_controller(controllers_.size() - 1, controller);

    if (s != Scheme::kParaleonNoFsd) {
      for (int t = 0; t < topo_->tor_count(); ++t) {
        core::SwitchAgent::DrainFn drain;
        if (s == Scheme::kParaleonRnicCounters) {
          // §V relaxation: no programmable switches — the "agent" reads
          // the per-QP counters of its rack's RNICs (exact, TOS-free).
          std::vector<int> rack_hosts;
          for (int h = 0; h < topo_->host_count(); ++h) {
            if (topo_->tor_of_host(h) != t) continue;
            rack_hosts.push_back(h);
            topo_->host(h).enable_tx_counters(/*channel=*/0);
          }
          drain = [this, rack_hosts] {
            std::vector<sketch::HeavyRecord> out;
            for (int h : rack_hosts) {
              for (const auto& [qp, bytes] :
                   topo_->host(h).drain_tx_bytes_per_flow(/*channel=*/0)) {
                out.push_back({qp, bytes});
              }
            }
            return out;
          };
        } else if (s == Scheme::kParaleonNetflow) {
          auto nf_cfg = cfg_.netflow;
          nf_cfg.seed = cfg_.seed * 31 + static_cast<std::uint64_t>(t);
          auto nf = std::make_unique<sketch::NetFlow>(nf_cfg);
          sketch::NetFlow* raw = nf.get();
          drain = [raw] {
            auto v = raw->flows();
            raw->reset();
            return v;
          };
          topo_->tor(t).attach_sketch(raw);
          sketches_.push_back(std::move(nf));
        } else {
          auto es_cfg = cfg_.sketch;
          es_cfg.use_tos_marking = (s != Scheme::kParaleonNaiveSketch);
          auto es = std::make_unique<sketch::ElasticSketch>(es_cfg);
          sketch::ElasticSketch* raw = es.get();
          register_sketch(t, raw);
          drain = [raw] {
            auto v = raw->heavy_flows();
            raw->reset();
            return v;
          };
          topo_->tor(t).attach_sketch(
              checker_ ? checker_->wrap_sketch(raw)
                       : static_cast<sim::SketchHook*>(raw));
          sketches_.push_back(std::move(es));
        }
        agents_.push_back(
            std::make_unique<core::SwitchAgent>(agent_cfg, std::move(drain)));
        controller->add_agent(agents_.back().get());
      }
    }
    controller->start();
    return;
  }

  if (s == Scheme::kAcc) {
    const auto make_agent = [&](sim::SwitchNode& sw, int idx) {
      auto acc_cfg = cfg_.acc;
      acc_cfg.seed = cfg_.seed * 131 + static_cast<std::uint64_t>(idx);
      acc_agents_.push_back(std::make_unique<baselines::AccAgent>(
          &sim_, &sw, cfg_.clos.host_link, acc_cfg));
      acc_agents_.back()->start();
    };
    int idx = 0;
    for (int t = 0; t < topo_->tor_count(); ++t)
      make_agent(topo_->tor(t), idx++);
    for (int l = 0; l < topo_->leaf_count(); ++l)
      make_agent(topo_->leaf(l), idx++);
    return;
  }

  if (s == Scheme::kDcqcnPlus) {
    for (int h = 0; h < topo_->host_count(); ++h) {
      topo_->host(h).enable_dcqcn_plus(cfg_.dcqcn_plus_base_interval,
                                       cfg_.dcqcn_plus_window);
    }
    return;
  }
  // Static schemes: parameters were installed at topology construction.
}

void Experiment::schedule_probe() {
  const Time mi = cfg_.controller.mi;

  // A single full-scope controller already records the network-wide
  // series; schemes without one (static/ACC/DCQCN+) or with several
  // scoped ones (per-pod) get an independent probe.
  if (controllers_.size() != 1) {
    // Record the runtime series the controller would otherwise provide.
    probe_collector_ = std::make_unique<core::MetricCollector>(topo_.get());
    sim_.schedule_at(mi, [this] { probe_tick(); });
  }

  if (cfg_.obs.flight.armed) {
    flight_triggers_.configure(cfg_.obs.flight);
    sim_.schedule_at(obs::kFlightScanInterval, [this] { flight_scan_tick(); },
                     "obs.flight_scan");
  }

  if (cfg_.track_fsd_accuracy) {
    for (int h = 0; h < topo_->host_count(); ++h) {
      topo_->host(h).enable_tx_counters(/*channel=*/1);
    }
    // A flow that sent bytes this interval may have finished before the
    // tick; the ledger keeps such flows findable until the tick releases
    // them.
    fct_->hold_finished();
    // Runs 1 ns after the controller/agent tick of the same interval so
    // the agents have already advanced.
    sim_.schedule_at(mi + 1, [this] { fsd_accuracy_tick(); });
  }
}

void Experiment::probe_tick() {
  const Time mi = cfg_.controller.mi;
  const core::NetworkMetrics m = probe_collector_->collect(mi);
  probe_tput_.add(sim_.now(), m.total_tx_gbps);
  probe_rtt_.add(sim_.now(), m.avg_rtt_us);
  sim_.schedule_in(mi, [this] { probe_tick(); });
}

void Experiment::flight_scan_tick() {
  // The scan is strictly read-only on the network: it samples cumulative
  // telemetry and (at most) writes a bundle, so arming the recorder
  // cannot change what the fabric does — which is exactly what makes a
  // later --replay-flight of the same seed reproduce the anomaly.
  obs::AnomalyTriggers::Sample s;
  s.t = sim_.now();
  s.total_paused_ns = topo_->total_paused_time();
  s.drops = static_cast<std::int64_t>(topo_->total_drops());
  for (const auto& c : controllers_) {
    s.reverts += static_cast<std::int64_t>(c->reverts());
  }
  if (!controllers_.empty()) {
    const auto& pts = controllers_.front()->utility_series().points();
    if (!pts.empty()) {
      s.utility = pts.back().value;
      s.utility_valid = true;
    }
  }
  const char* fired = flight_triggers_.update(s);
  if (fired != nullptr) {
    flight_trigger_count_.inc();
    if (flight_bundle_dir_.empty()) {
      flight_bundle_dir_ = write_flight_bundle(*this, fired);
    }
  }
  sim_.schedule_in(obs::kFlightScanInterval, [this] { flight_scan_tick(); },
                   "obs.flight_scan");
}

void Experiment::fsd_accuracy_tick() {
  // Accuracy is per-flow elephant/mice classification over the flows
  // truly active in the interval: a flow whose final size is >= tau
  // counts as an elephant; the monitor's estimate is its likelihood (TOS
  // dedup means at most one agent saw the flow; without dedup every agent
  // saw all of its bytes, so the max across agents is the scheme's belief
  // either way).
  const std::int64_t tau = cfg_.agent.ternary.tau_bytes;
  double sum = 0.0;
  int n = 0;
  for (int h = 0; h < topo_->host_count(); ++h) {
    for (const auto& [flow_id, bytes] :
         topo_->host(h).drain_tx_bytes_per_flow(/*channel=*/1)) {
      if (bytes <= 0) continue;
      const stats::FlowRecord* rec = fct_->find(flow_id);
      if (rec == nullptr) continue;
      const double truth = rec->size_bytes >= tau ? 1.0 : 0.0;
      double est = 0.0;
      for (const auto& a : agents_) {
        est = std::max(est, a->elephant_likelihood(rec->qp_key));
      }
      sum += 1.0 - std::abs(est - truth);
      ++n;
    }
  }
  fct_->release_finished();
  if (n > 0) accuracy_series_.add(sim_.now(), sum / n);
  sim_.schedule_in(cfg_.controller.mi, [this] { fsd_accuracy_tick(); });
}

void Experiment::start_flow(const workload::FlowSpec& spec) {
  fct_->on_flow_start(spec.flow_id, static_cast<std::uint32_t>(spec.src),
                      static_cast<std::uint32_t>(spec.dst), spec.size_bytes,
                      sim_.now(), spec.qp_key);
  topo_->host(spec.src).start_flow(spec.flow_id,
                                   static_cast<sim::NodeId>(spec.dst),
                                   spec.size_bytes, spec.qp_key);
}

workload::PoissonWorkload& Experiment::add_poisson(
    workload::PoissonConfig wcfg) {
  wcfg.flow_id_base =
      (static_cast<std::uint64_t>(workloads_.size()) + 1) << 32;
  wcfg.host_rate = cfg_.clos.host_link;
  auto w = std::make_unique<workload::PoissonWorkload>(wcfg);
  auto* raw = w.get();
  workloads_.push_back(std::move(w));
  raw->install(sim_, [this](const workload::FlowSpec& f) { start_flow(f); });
  return *raw;
}

workload::AlltoallWorkload& Experiment::add_alltoall(
    workload::AlltoallConfig wcfg) {
  wcfg.flow_id_base =
      (static_cast<std::uint64_t>(workloads_.size()) + 1) << 32;
  auto w = std::make_unique<workload::AlltoallWorkload>(wcfg);
  auto* raw = w.get();
  workloads_.push_back(std::move(w));
  raw->install(sim_, [this](const workload::FlowSpec& f) { start_flow(f); });
  return *raw;
}

workload::Workload& Experiment::add_workload(
    std::unique_ptr<workload::Workload> w) {
  auto* raw = w.get();
  workloads_.push_back(std::move(w));
  raw->install(sim_, [this](const workload::FlowSpec& f) { start_flow(f); });
  return *raw;
}

std::uint64_t Experiment::inject_flow(int src, int dst,
                                      std::int64_t size_bytes, Time at) {
  workload::FlowSpec spec;
  spec.flow_id = ++injected_flow_seq_;
  spec.src = src;
  spec.dst = dst;
  spec.size_bytes = size_bytes;
  if (at <= sim_.now()) {
    start_flow(spec);
  } else {
    sim_.schedule_at(at, [this, spec] { start_flow(spec); }, "workload.inject");
  }
  return spec.flow_id;
}

void Experiment::run() { run_until(cfg_.duration); }

void Experiment::run_until(Time t) {
  if (!cfg_.obs.flight.armed) {
    sim_.run_until(t);
    return;
  }
  try {
    sim_.run_until(t);
  } catch (const check::CheckFailure& failure) {
    // The invariant checker (or any PARALEON_CHECK) caught the run in a
    // corrupt state: capture it before the stack unwinds it away, in its
    // own bundle even when an anomaly trigger already wrote one.
    flight_trigger_count_.inc();
    flight_bundle_dir_ = write_flight_bundle(*this, "check_failure", &failure);
    throw;
  }
}

const stats::TimeSeries& Experiment::throughput_series() const {
  return controllers_.size() == 1 ? controllers_.front()->throughput_series()
                                  : probe_tput_;
}

const stats::TimeSeries& Experiment::rtt_series() const {
  if (controllers_.size() == 1) return controllers_.front()->rtt_series();
  if (controllers_.empty()) return probe_rtt_;
  // Per-pod: each scoped controller drained its own hosts' RTT samples;
  // merge by averaging the pods that saw traffic in each interval.
  merged_rtt_ = stats::TimeSeries{};
  const auto& first = controllers_.front()->rtt_series().points();
  for (std::size_t i = 0; i < first.size(); ++i) {
    double sum = 0.0;
    int n = 0;
    for (const auto& c : controllers_) {
      const auto& pts = c->rtt_series().points();
      if (i < pts.size() && pts[i].value > 0.0) {
        sum += pts[i].value;
        ++n;
      }
    }
    merged_rtt_.add(first[i].t, n == 0 ? 0.0 : sum / n);
  }
  return merged_rtt_;
}

double Experiment::mean_fsd_accuracy() const {
  const auto& pts = accuracy_series_.points();
  if (pts.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : pts) sum += p.value;
  return sum / static_cast<double>(pts.size());
}

dcqcn::DcqcnParams Experiment::learned_params() const {
  if (controllers_.empty()) return cfg_.clos.dcqcn;
  const auto& c = *controllers_.front();
  return c.episodes() > 0 ? c.tuner().best() : c.installed_params();
}

std::vector<int> Experiment::all_hosts() const {
  std::vector<int> out(static_cast<std::size_t>(topo_->host_count()));
  for (int i = 0; i < topo_->host_count(); ++i)
    out[static_cast<std::size_t>(i)] = i;
  return out;
}

std::uint64_t run_digest(Experiment& exp) {
  check::RunDigest d;
  d.add("sim")
      .add_u64(exp.simulator().events_executed())
      .add_i64(exp.simulator().now());

  auto& topo = exp.topology();
  for (int h = 0; h < topo.host_count(); ++h) {
    auto& host = topo.host(h);
    const auto& up = host.uplink();
    d.add("host").add_i64(h);
    d.add_i64(up.tx_data_bytes()).add_i64(up.tx_ctrl_bytes());
    d.add_u64(up.tx_data_packets()).add_u64(up.pause_events());
    d.add_i64(up.paused_time());
    d.add_u64(host.cnps_sent()).add_u64(host.cnps_received());
  }

  auto add_switch = [&d](std::string_view kind, int i, sim::SwitchNode& sw) {
    d.add(kind).add_i64(i);
    d.add_i64(sw.buffer_used());
    d.add_u64(sw.drops()).add_u64(sw.ecn_marks()).add_u64(sw.pfc_pauses_sent());
    d.add_i64(sw.total_paused_time());
    for (int p = 0; p < sw.port_count(); ++p) {
      const auto& dev = sw.port(p);
      d.add_i64(dev.tx_data_bytes()).add_u64(dev.tx_data_packets());
      d.add_u64(dev.pause_events()).add_i64(dev.paused_time());
    }
  };
  for (int t = 0; t < topo.tor_count(); ++t) add_switch("tor", t, topo.tor(t));
  for (int l = 0; l < topo.leaf_count(); ++l) {
    add_switch("leaf", l, topo.leaf(l));
  }

  // completed() is sorted by flow id, so the digest depends on what ran,
  // not on the order flows started in.
  const auto records = exp.fct().completed();
  d.add("fct").add_u64(exp.fct().started()).add_u64(exp.fct().finished());
  for (const auto& r : records) {
    d.add_u64(r.flow_id).add_u64(r.src).add_u64(r.dst);
    d.add_i64(r.size_bytes).add_i64(r.start).add_i64(r.finish);
  }

  auto add_series = [&d](std::string_view label, const stats::TimeSeries& s) {
    d.add(label);
    for (const auto& p : s.points()) d.add_i64(p.t).add_double(p.value);
  };
  add_series("tput", exp.throughput_series());
  add_series("rtt", exp.rtt_series());
  add_series("fsd", exp.fsd_accuracy_series());

  // Observability surfaces are part of the deterministic contract: the
  // counter registry, every retained trace event and the episode timelines
  // must be pure functions of the seed too. (The loop profiler is
  // wall-clock and deliberately absent.)
  d.add("registry");
  for (const auto& s : exp.simulator().obs().registry().snapshot()) {
    d.add(s.name).add_double(s.value);
  }
  const auto& trec = exp.simulator().obs().trace();
  d.add("trace").add_u64(trec.total());
  trec.for_each([&d](const obs::TraceEvent& ev) {
    d.add(ev.name).add_i64(ev.ts).add_i64(ev.pid).add_i64(ev.tid);
    for (int i = 0; i < ev.n_args; ++i) {
      d.add(ev.args[i].key).add_i64(ev.args[i].value);
    }
  });
  d.add("episodes");
  for (const auto& c : exp.controllers()) {
    for (const auto& e : c->episode_log().episodes()) {
      d.add(e.trigger).add_i64(e.start).add_i64(e.end);
      d.add_double(e.kl_value).add_double(e.best_utility);
      d.add_u64(e.reverted ? 1 : 0);
      for (const auto& trial : e.trials) {
        d.add_i64(trial.t).add_double(trial.utility);
        d.add_u64(trial.accepted ? 1 : 0);
      }
    }
  }
  return d.value();
}

common::Json obs_report_json(const Experiment& exp) {
  using common::Json;
  const auto& o = exp.simulator().obs();
  Json episodes = Json::make_array();
  for (const auto& c : exp.controllers()) {
    episodes.push_back(c->episode_log().to_json());
  }
  return Json::make_object({
      {"scheme", Json::make_string(scheme_name(exp.config().scheme))},
      {"registry", o.registry().to_json()},
      {"trace",
       Json::make_object({
           {"total", Json::make_uint(o.trace().total())},
           {"recorded", Json::make_uint(o.trace().recorded())},
           {"dropped", Json::make_uint(o.trace().dropped())},
       })},
      {"episodes", std::move(episodes)},
      {"fct", fct_report_json(exp.fct())},
      // Perf section (paraleon.perf.v1): a constant all-zero stub when the
      // monitor is off, so byte-identical obs reports stay identical; only
      // its "wall" subsection is nondeterministic when on.
      {"perf", obs::perf_report_json(o.perf(), o.profiler())},
  });
}

common::Json slowdown_json(const stats::FctTracker::SlowdownStats& s) {
  using common::Json;
  return Json::make_object({
      {"mean", Json::make_number(s.mean)},
      {"p50", Json::make_number(s.p50)},
      {"p95", Json::make_number(s.p95)},
      {"p99", Json::make_number(s.p99)},
      {"p999", Json::make_number(s.p999)},
  });
}

common::Json fct_report_json(const stats::FctTracker& fct) {
  using common::Json;
  const auto stats_json = [](const stats::FctTracker::SlowdownStats& s) {
    Json j = slowdown_json(s);
    auto& m = j.members();
    m.emplace(m.begin(), "count", Json::make_uint(s.count));
    return j;
  };
  Json buckets = Json::make_array();
  for (const auto& [bucket, s] : fct.bucket_slowdowns()) {
    buckets.push_back(Json::make_object({
        {"label", Json::make_string(bucket.label)},
        {"min_size", Json::make_int(bucket.min_size)},
        {"stats", stats_json(s)},
    }));
  }
  return Json::make_object({
      {"started", Json::make_uint(fct.started())},
      {"finished", Json::make_uint(fct.finished())},
      {"slowdown", stats_json(fct.slowdown_stats(
                       0, std::numeric_limits<std::int64_t>::max()))},
      {"buckets", std::move(buckets)},
  });
}

}  // namespace paraleon::runner
